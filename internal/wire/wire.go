// Package wire defines the binary wire format of the Secure Multicast
// Protocols (paper §7, Figure 6, Table 3): regular data messages, the
// token that circulates on the logical ring, and the membership protocol's
// messages. Encoding is explicit little-endian with length prefixes, and
// decoding is strictly bounds-checked — a corrupted frame must surface as a
// decode error (to be caught by digests), never as a panic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"immune/internal/ids"
	"immune/internal/sec"
)

// Kind tags the message type in the first payload byte.
type Kind byte

const (
	// KindRegular is a regular data message (Figure 6).
	KindRegular Kind = iota + 1
	// KindToken is the ring token (Figure 6, Table 3).
	KindToken
	// KindMembership is a processor membership protocol message (§7.2).
	KindMembership
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindToken:
		return "token"
	case KindMembership:
		return "membership"
	case KindFlush:
		return "flush"
	case KindWake:
		return "wake"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// ErrTruncated is returned when a payload ends before a complete field.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrBadKind is returned when the leading type byte is unknown.
var ErrBadKind = errors.New("wire: unknown message kind")

// maxListLen bounds decoded list lengths so a corrupted length field cannot
// trigger giant allocations.
const maxListLen = 1 << 16

// writer accumulates an encoding. Hot-path marshals presize buf with the
// exact encoded size (see the sizeOf* helpers) so each Marshal costs one
// allocation instead of a chain of growth copies.
type writer struct{ buf []byte }

// newWriter returns a writer whose buffer has capacity for size bytes.
func newWriter(size int) writer { return writer{buf: make([]byte, 0, size)} }

func (w *writer) byte1(b byte) { w.buf = append(w.buf, b) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) digest(d [sec.DigestSize]byte) { w.buf = append(w.buf, d[:]...) }

// reader consumes an encoding with sticky errors.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) byte1() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > maxListLen || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return out
}

// bytesRef is bytes without the defensive copy: the result aliases the
// payload. Decoders use it when the payload's ownership has already been
// transferred to the receiver (netsim copies each frame per receiver), so
// the alias can never observe sender-side mutation.
func (r *reader) bytesRef() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > maxListLen || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

func (r *reader) digest() (d [sec.DigestSize]byte) {
	if r.err != nil || r.off+sec.DigestSize > len(r.buf) {
		r.fail()
		return d
	}
	copy(d[:], r.buf[r.off:])
	r.off += sec.DigestSize
	return d
}

// listLen reads and validates a list length.
func (r *reader) listLen() int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > maxListLen {
		r.fail()
		return 0
	}
	return n
}

// done verifies the whole payload was consumed.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// PeekKind returns the message kind of an encoded payload.
func PeekKind(payload []byte) (Kind, error) {
	if len(payload) == 0 {
		return 0, ErrTruncated
	}
	k := Kind(payload[0])
	switch k {
	case KindRegular, KindToken, KindMembership, KindFlush, KindWake:
		return k, nil
	default:
		return 0, ErrBadKind
	}
}

// Regular is a regular data message multicast on the ring: the fields of
// Figure 6 (sender_id, ring_id, seq, contents). Seq is the global total
// order sequence number assigned from the token when the message was
// originated.
// A Regular is encode-once: set the exported fields before the first call
// to Marshal or Digest, never after — both memoize their result, and the
// ring's delivery path relies on the memoized digest being stable.
type Regular struct {
	Sender   ids.ProcessorID
	Ring     ids.RingID
	Seq      uint64
	Contents []byte

	raw    []byte               // memoized encoding (or the decode payload)
	dig    [sec.DigestSize]byte // memoized digest of raw
	digSet bool
}

// encodedSize returns the exact length of the encoding.
func (m *Regular) encodedSize() int {
	return 1 + 4 + 4 + 8 + 4 + len(m.Contents)
}

// Marshal encodes the message with its kind tag. The result is memoized:
// repeat calls return the same buffer, and callers must not mutate it.
func (m *Regular) Marshal() []byte {
	if m.raw != nil {
		return m.raw
	}
	w := newWriter(m.encodedSize())
	w.byte1(byte(KindRegular))
	w.u32(uint32(m.Sender))
	w.u32(uint32(m.Ring))
	w.u64(m.Seq)
	w.bytes(m.Contents)
	m.raw = w.buf
	return m.raw
}

// UnmarshalRegular decodes a regular message payload. The decoded message
// aliases payload (no copies): the caller transfers ownership of payload.
func UnmarshalRegular(payload []byte) (*Regular, error) {
	r := reader{buf: payload}
	if k := r.byte1(); Kind(k) != KindRegular {
		return nil, fmt.Errorf("wire: kind %d is not a regular message", k)
	}
	m := &Regular{
		Sender:   ids.ProcessorID(r.u32()),
		Ring:     ids.RingID(r.u32()),
		Seq:      r.u64(),
		Contents: r.bytesRef(),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	m.raw = payload
	return m, nil
}

// Digest computes the message digest carried in the token's message digest
// list for this message (digest over the full encoding). Memoized: the
// delivery path consults it once per held copy per token arrival.
func (m *Regular) Digest() [sec.DigestSize]byte {
	if !m.digSet {
		m.dig = sec.Digest(m.Marshal())
		m.digSet = true
	}
	return m.dig
}
