package folder

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// get finds one document in the copies Docs hands out.
func get(r *Replica, id string) (Document, bool) {
	for _, d := range r.Docs() {
		if d.ID == id {
			return d, true
		}
	}
	return Document{}, false
}

func TestPutGet(t *testing.T) {
	r := NewReplica("patient")
	r.Put("doc1", "medical/notes", []byte("checkup ok"))
	d, ok := get(r, "doc1")
	if !ok || string(d.Body) != "checkup ok" || d.Stamp.Writer != "patient" {
		t.Errorf("Get = %+v, %v", d, ok)
	}
	if _, ok := get(r, "missing"); ok {
		t.Error("missing doc found")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestUpdateBumpsStamp(t *testing.T) {
	r := NewReplica("p")
	d1 := r.Put("d", "c", []byte("v1"))
	d2 := r.Put("d", "c", []byte("v2"))
	if !d2.Stamp.Newer(d1.Stamp) {
		t.Error("second write not newer")
	}
	got, _ := get(r, "d")
	if string(got.Body) != "v2" {
		t.Errorf("body = %q", got.Body)
	}
}

func TestBadgeTransportsUpdates(t *testing.T) {
	patient := NewReplica("patient")
	doctor := NewReplica("doctor")
	patient.Put("rx", "medical/prescriptions", []byte("aspirin"))

	badge := NewBadge("badge-1")
	badge.Touch(patient) // picks up rx
	if len(badge.cargo) != 1 {
		t.Fatalf("cargo = %d", len(badge.cargo))
	}
	applied, _ := badge.Touch(doctor)
	if applied != 1 {
		t.Errorf("applied = %d", applied)
	}
	d, ok := get(doctor, "rx")
	if !ok || string(d.Body) != "aspirin" {
		t.Errorf("doctor replica = %+v, %v", d, ok)
	}
}

func TestLastWriterWinsDeterministic(t *testing.T) {
	a := NewReplica("alice")
	b := NewReplica("bob")
	// Concurrent writes with equal counters: Writer breaks the tie the
	// same way regardless of merge order.
	a.Put("d", "c", []byte("from-alice"))
	b.Put("d", "c", []byte("from-bob"))

	badge1 := NewBadge("b1")
	badge1.Touch(a)
	badge1.Touch(b)
	badge1.Touch(a)

	a2 := NewReplica("alice")
	b2 := NewReplica("bob")
	a2.Put("d", "c", []byte("from-alice"))
	b2.Put("d", "c", []byte("from-bob"))
	badge2 := NewBadge("b2")
	badge2.Touch(b2)
	badge2.Touch(a2)
	badge2.Touch(b2)

	da, _ := get(a, "d")
	db, _ := get(b, "d")
	da2, _ := get(a2, "d")
	db2, _ := get(b2, "d")
	if string(da.Body) != string(db.Body) || string(da.Body) != string(da2.Body) || string(da.Body) != string(db2.Body) {
		t.Errorf("merge not deterministic: %q %q %q %q", da.Body, db.Body, da2.Body, db2.Body)
	}
	if string(da.Body) != "from-bob" { // "bob" > "alice"
		t.Errorf("tie break = %q, want from-bob", da.Body)
	}
}

func TestConvergenceGossip(t *testing.T) {
	// One patient + several practitioners, random visit schedule: the
	// badge circulating must converge everyone.
	rng := rand.New(rand.NewSource(5))
	replicas := []*Replica{NewReplica("patient")}
	for i := 0; i < 6; i++ {
		replicas = append(replicas, NewReplica(fmt.Sprintf("prac-%d", i)))
	}
	for i, r := range replicas {
		r.Put(fmt.Sprintf("doc-%d", i), "medical/notes", []byte(fmt.Sprintf("note from %s", r.Owner)))
	}
	badge := NewBadge("tour")
	// Random tour long enough to touch everyone repeatedly.
	for hop := 0; hop < 60; hop++ {
		badge.Touch(replicas[rng.Intn(len(replicas))])
		if hop > 20 && Converged(replicas...) {
			break
		}
	}
	// Final deterministic round to be sure everyone was visited after the
	// badge saw all updates.
	for _, r := range replicas {
		badge.Touch(r)
	}
	if !Converged(replicas...) {
		t.Error("replicas did not converge")
	}
	for _, r := range replicas {
		if r.Len() != len(replicas) {
			t.Errorf("%s has %d docs, want %d", r.Owner, r.Len(), len(replicas))
		}
	}
}

func TestConvergedEdgeCases(t *testing.T) {
	if !Converged() || !Converged(NewReplica("solo")) {
		t.Error("trivial convergence broken")
	}
	a, b := NewReplica("a"), NewReplica("b")
	if !Converged(a, b) {
		t.Error("two empty replicas not converged")
	}
	a.Put("d", "c", []byte("x"))
	if Converged(a, b) {
		t.Error("diverged replicas reported converged")
	}
}

func TestArchiveIsOpaque(t *testing.T) {
	patient := NewReplica("patient")
	patient.Put("rx", "medical", []byte("very-secret-diagnosis"))
	key := make([]byte, 32)
	v, err := NewVault(key)
	if err != nil {
		t.Fatal(err)
	}
	arch := NewArchive()
	n, err := v.Backup(patient, arch)
	if err != nil || n != 1 {
		t.Fatalf("backup = %d, %v", n, err)
	}
	blob, ok := arch.RawBlob("rx")
	if !ok {
		t.Fatal("blob missing")
	}
	if bytes.Contains(blob, []byte("very-secret-diagnosis")) {
		t.Error("archive stores plaintext")
	}
	if len(arch.blobs) != 1 {
		t.Errorf("blobs = %d", len(arch.blobs))
	}
}

func TestRestoreAfterTokenLoss(t *testing.T) {
	patient := NewReplica("patient")
	patient.Put("d1", "c", []byte("one"))
	patient.Put("d2", "c", []byte("two"))
	key := make([]byte, 32)
	v, _ := NewVault(key)
	arch := NewArchive()
	if _, err := v.Backup(patient, arch); err != nil {
		t.Fatal(err)
	}
	// New token, full restore.
	fresh := NewReplica("patient")
	n, err := v.RestoreAll(arch, fresh)
	if err != nil || n != 2 {
		t.Fatalf("restore = %d, %v", n, err)
	}
	if !Converged(patient, fresh) {
		t.Error("restored replica differs")
	}
	if err := v.Restore(arch, fresh, "ghost"); !errors.Is(err, ErrNotArchived) {
		t.Errorf("missing doc err = %v", err)
	}
}

func TestWrongKeyCannotRestore(t *testing.T) {
	patient := NewReplica("patient")
	patient.Put("d", "c", []byte("secret"))
	k1 := make([]byte, 32)
	k2 := append(make([]byte, 31), 1)
	v1, _ := NewVault(k1)
	v2, _ := NewVault(k2)
	arch := NewArchive()
	v1.Backup(patient, arch)
	if err := v2.Restore(arch, NewReplica("thief"), "d"); err == nil {
		t.Error("restore with wrong key succeeded")
	}
}

func TestDocCodecRoundTrip(t *testing.T) {
	d := Document{ID: "id", Category: "cat/sub", Body: []byte{0, 1, 2}, Stamp: Stamp{Counter: 1 << 40, Writer: "w"}}
	got, err := decodeDoc(encodeDoc(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID || got.Category != d.Category || !bytes.Equal(got.Body, d.Body) || got.Stamp != d.Stamp {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodeDoc([]byte{1}); err == nil {
		t.Error("short blob accepted")
	}
	if _, err := decodeDoc(append(encodeDoc(d), 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: any interleaving of puts and badge tours converges after a
// final two-round tour.
func TestQuickEventualConvergence(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		replicas := []*Replica{NewReplica("p0"), NewReplica("p1"), NewReplica("p2")}
		badge := NewBadge("b")
		for i := 0; i < int(ops)%40; i++ {
			r := replicas[rng.Intn(3)]
			switch rng.Intn(2) {
			case 0:
				r.Put(fmt.Sprintf("d%d", rng.Intn(5)), "c", []byte{byte(i)})
			case 1:
				badge.Touch(r)
			}
		}
		for round := 0; round < 2; round++ {
			for _, r := range replicas {
				badge.Touch(r)
			}
		}
		return Converged(replicas...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
