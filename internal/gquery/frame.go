package gquery

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"pds/internal/netsim"
)

// A frame is what one bulk leg of a run carries: a PDS's upload to its
// SSI node, the chunk the SSI dispatches to a fold token, or the sealed
// partials the SSI relays to a merging token. It is a run of records,
// each u32 length | record bytes, in upload, partition or child order,
// so a leg costs one message however many records it moves. The SSI
// learns nothing from a frame it did not already know: an upload frame's
// record count is the tuple count it sees from the sender, a chunk
// frame's is the chunk size it chose, and a merge frame's is the number
// of partials it relays — under Flat() the chunk count it dispatched.

// recordPrefix is the length prefix in front of every record.
const recordPrefix = 4

// errBadFrame marks a frame that does not split into whole records.
var errBadFrame = errors.New("gquery: malformed frame")

// beginRecord reserves a record's length prefix at the end of dst; the
// record is then appended in place and endRecord writes its length.
func beginRecord(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// endRecord closes the record begun at offset at.
func endRecord(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-recordPrefix))
	return dst
}

// eachRecord calls fn on every record of frame in order until fn returns
// false. A record is capped at its own length, so fn cannot reach into
// its neighbour. It reports errBadFrame, after visiting the whole records
// before it, when the frame ends inside a prefix or a record.
func eachRecord(frame []byte, fn func(rec []byte) bool) error {
	for len(frame) > 0 {
		if len(frame) < recordPrefix {
			return errBadFrame
		}
		n := binary.LittleEndian.Uint32(frame)
		if uint64(n) > uint64(len(frame)-recordPrefix) {
			return errBadFrame
		}
		end := recordPrefix + int(n)
		if !fn(frame[recordPrefix:end:end]) {
			return nil
		}
		frame = frame[end:]
	}
	return nil
}

// EachUpload is the receiving end of a frame from outside the querier:
// it splits one PDS's upload frame back into the per-tuple envelopes of
// the SSI's inbox, or a remote SSI node's chunk frame back into its
// chunk, in order, handing each to receive until receive returns false
// (a node that dies mid-frame loses the rest of it). A frame that does
// not split into whole records loses its malformed tail; the final
// token's tuple-id checksum catches the loss.
func EachUpload(frame netsim.Envelope, receive func(netsim.Envelope) bool) {
	eachRecord(frame.Payload, func(rec []byte) bool {
		return receive(netsim.Envelope{From: frame.From, To: frame.To, Kind: frame.Kind, Payload: rec, Ctx: frame.Ctx})
	})
}

// AppendFrame appends the frame of envs to dst, one record per payload
// in order: the frame EachUpload splits back into envs.
func AppendFrame(dst []byte, envs []netsim.Envelope) []byte {
	for _, e := range envs {
		var at int
		dst, at = beginRecord(dst)
		dst = endRecord(append(dst, e.Payload...), at)
	}
	return dst
}

// chunkFrames holds the frame buffers of the fold and merge legs. The
// token retains nothing of the frame it folds (it decrypts each record
// into fresh memory), so a buffer is reused as soon as its leg is sent.
var chunkFrames = sync.Pool{New: func() any { return new([]byte) }}

// recordFrame packs the payload of each item into one frame, in order,
// in a pooled buffer the caller puts back into chunkFrames once the leg
// is sent.
func recordFrame[T any](items []T, payload func(T) []byte) *[]byte {
	n := 0
	for _, it := range items {
		n += recordPrefix + len(payload(it))
	}
	buf := chunkFrames.Get().(*[]byte)
	frame := slices.Grow((*buf)[:0], n)
	for _, it := range items {
		var at int
		frame, at = beginRecord(frame)
		frame = endRecord(append(frame, payload(it)...), at)
	}
	*buf = frame
	return buf
}

// envPayload is a chunk's record: the envelope's sealed upload.
func envPayload(e netsim.Envelope) []byte { return e.Payload }
