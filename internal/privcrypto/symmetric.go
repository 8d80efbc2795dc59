package privcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// Symmetric encryption errors.
var (
	ErrBadKeySize     = errors.New("privcrypto: key must be 32 bytes")
	ErrCiphertext     = errors.New("privcrypto: malformed ciphertext")
	ErrAuthentication = errors.New("privcrypto: authentication failed")
)

// KeySize is the byte length of symmetric keys.
const KeySize = 32

// Overhead is what a symmetric ciphertext adds to its plaintext: iv(16)
// in front, tag(32) behind.
const Overhead = 16 + sha256.Size

// KeyedMAC is HMAC-SHA256 under one key. The key schedule is set up once
// per state and a state is Reset, not rebuilt, between messages; states
// live in a pool, so the concurrent tokens of a fleet each draw their own
// and the pool holds nothing a collection cycle cannot drop.
type KeyedMAC struct {
	key  []byte
	pool sync.Pool // of *macState
}

// macState is one keyed HMAC plus the scratch its tag is summed into when
// the caller only compares it.
type macState struct {
	h   hash.Hash
	tag [sha256.Size]byte
}

// NewKeyedMAC binds a MAC to key.
func NewKeyedMAC(key []byte) *KeyedMAC {
	return &KeyedMAC{key: append([]byte(nil), key...)}
}

func (k *KeyedMAC) get() *macState {
	if st, ok := k.pool.Get().(*macState); ok {
		return st
	}
	return &macState{h: hmac.New(sha256.New, k.key)}
}

func (k *KeyedMAC) put(st *macState) {
	st.h.Reset()
	k.pool.Put(st)
}

// Sum appends the tag of msg to dst.
func (k *KeyedMAC) Sum(dst, msg []byte) []byte {
	st := k.get()
	st.h.Write(msg)
	dst = st.h.Sum(dst)
	k.put(st)
	return dst
}

// Verify checks a tag in constant time.
func (k *KeyedMAC) Verify(msg, tag []byte) bool {
	st := k.get()
	st.h.Write(msg)
	ok := hmac.Equal(st.h.Sum(st.tag[:0]), tag)
	k.put(st)
	return ok
}

// NewKey generates a fresh random 32-byte key.
func NewKey() ([]byte, error) {
	k := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return nil, err
	}
	return k, nil
}

// NonDetCipher is randomized AES-CTR encryption with an HMAC tag
// (encrypt-then-MAC): two encryptions of the same plaintext are unequal
// with overwhelming probability. This is the mode of the [TNP14]
// secure-aggregation protocol — the SSI learns nothing, so aggregation
// must come back inside a token.
type NonDetCipher struct {
	block cipher.Block
	mac   *KeyedMAC
}

// NewNonDetCipher builds a cipher from a 32-byte key (split into an
// encryption key and a MAC key derivation).
func NewNonDetCipher(key []byte) (*NonDetCipher, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	encKey := deriveKey(key, "enc")
	block, err := aes.NewCipher(encKey[:16])
	if err != nil {
		return nil, err
	}
	mk := deriveKey(key, "mac")
	return &NonDetCipher{block: block, mac: NewKeyedMAC(mk[:])}, nil
}

// Encrypt returns iv(16) || ct || tag(32).
func (c *NonDetCipher) Encrypt(pt []byte) ([]byte, error) {
	return c.AppendEncrypt(make([]byte, 0, len(pt)+Overhead), pt)
}

// AppendEncrypt appends the ciphertext of pt to dst, so a caller framing
// it builds its message in one buffer. pt is copied before anything else
// sees it, so a caller's stack buffer stays on the stack.
func (c *NonDetCipher) AppendEncrypt(dst, pt []byte) ([]byte, error) {
	off := len(dst)
	dst = append(append(dst, zeroIV[:]...), pt...)
	if _, err := io.ReadFull(rand.Reader, dst[off:off+16]); err != nil {
		return nil, err
	}
	return sealCTR(c.block, c.mac, dst, off), nil
}

var zeroIV [16]byte

// Decrypt verifies the tag and recovers the plaintext.
func (c *NonDetCipher) Decrypt(ct []byte) ([]byte, error) {
	return openCTR(c.block, c.mac, ct)
}

// sealCTR finishes a ciphertext laid out as iv(16) || plaintext from
// dst[off:]: encrypt the plaintext in place, append the tag.
func sealCTR(block cipher.Block, mac *KeyedMAC, dst []byte, off int) []byte {
	cipher.NewCTR(block, dst[off:off+16]).XORKeyStream(dst[off+16:], dst[off+16:])
	return mac.Sum(dst, dst[off:])
}

// openCTR verifies and decrypts iv(16) || ct || tag(32).
func openCTR(block cipher.Block, mac *KeyedMAC, ct []byte) ([]byte, error) {
	if len(ct) < Overhead {
		return nil, fmt.Errorf("%w: %d bytes", ErrCiphertext, len(ct))
	}
	body, tag := ct[:len(ct)-sha256.Size], ct[len(ct)-sha256.Size:]
	if !mac.Verify(body, tag) {
		return nil, ErrAuthentication
	}
	pt := make([]byte, len(body)-16)
	cipher.NewCTR(block, body[:16]).XORKeyStream(pt, body[16:])
	return pt, nil
}

// DetCipher is deterministic (SIV-style) encryption: the IV is a PRF of
// the plaintext, so equal plaintexts yield equal ciphertexts. This is the
// controlled-leakage mode of the [TNP14] noise-based and histogram-based
// protocols: the SSI can group equal values without learning them, and
// fake tuples are injected to hide the true frequency distribution.
type DetCipher struct {
	block cipher.Block
	prf   *KeyedMAC
	mac   *KeyedMAC
}

// NewDetCipher builds a deterministic cipher from a 32-byte key.
func NewDetCipher(key []byte) (*DetCipher, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	encKey := deriveKey(key, "det-enc")
	block, err := aes.NewCipher(encKey[:16])
	if err != nil {
		return nil, err
	}
	prf := deriveKey(key, "det-prf")
	mk := deriveKey(key, "det-mac")
	return &DetCipher{block: block, prf: NewKeyedMAC(prf[:]), mac: NewKeyedMAC(mk[:])}, nil
}

// Encrypt returns iv(16) || ct || tag(32) with iv = PRF(plaintext).
func (c *DetCipher) Encrypt(pt []byte) ([]byte, error) {
	return c.AppendEncrypt(make([]byte, 0, len(pt)+Overhead), pt)
}

// AppendEncrypt appends the ciphertext of pt to dst (see
// NonDetCipher.AppendEncrypt).
func (c *DetCipher) AppendEncrypt(dst, pt []byte) ([]byte, error) {
	off := len(dst)
	dst = append(append(dst, zeroIV[:]...), pt...)
	// The PRF tag is summed behind the plaintext, its first half moved to
	// the iv; the MAC then overwrites it.
	tag := c.prf.Sum(dst, dst[off+16:])
	copy(dst[off:off+16], tag[len(dst):])
	return sealCTR(c.block, c.mac, dst, off), nil
}

// Decrypt verifies and recovers the plaintext.
func (c *DetCipher) Decrypt(ct []byte) ([]byte, error) {
	return openCTR(c.block, c.mac, ct)
}

// deriveKey derives a subkey for a labeled purpose from a master key.
func deriveKey(master []byte, label string) [32]byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(label))
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// MAC computes an HMAC-SHA256 tag (used by tokens to authenticate protocol
// messages and detect a weakly-malicious SSI).
func MAC(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// VerifyMAC checks a tag in constant time.
func VerifyMAC(key, msg, tag []byte) bool {
	return hmac.Equal(MAC(key, msg), tag)
}
