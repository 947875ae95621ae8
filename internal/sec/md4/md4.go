// Package md4 implements the MD4 message-digest algorithm from RFC 1320.
//
// The Immune system's Secure Multicast Protocols place a 16-byte digest of
// each regular message in the token (paper §7, §7.1). The paper uses MD4 via
// CryptoLib; MD4 is not in the Go standard library, so it is implemented
// here from the RFC. MD4 is cryptographically broken and must not be used
// for new designs; it is reproduced solely for fidelity to the paper.
package md4

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

// Size is the size of an MD4 checksum in bytes.
const Size = 16

// BlockSize is the block size of MD4 in bytes.
const BlockSize = 64

const (
	init0 = 0x67452301
	init1 = 0xefcdab89
	init2 = 0x98badcfe
	init3 = 0x10325476
)

// digest is the streaming state of an MD4 computation.
type digest struct {
	s   [4]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

var _ hash.Hash = (*digest)(nil)

// New returns a new hash.Hash computing the MD4 checksum.
func New() hash.Hash {
	d := new(digest)
	d.Reset()
	return d
}

// Sum returns the MD4 checksum of data.
func Sum(data []byte) [Size]byte {
	d := new(digest)
	d.Reset()
	d.Write(data)
	var out [Size]byte
	d.checkSum(&out)
	return out
}

// SumPrefix returns the MD4 checksums of data[:n] and of all of data in
// one pass: the state after data[:n] is finalised on a copy and then
// continued over the rest.
func SumPrefix(data []byte, n int) (prefix, whole [Size]byte) {
	var d digest
	d.Reset()
	d.Write(data[:n])
	d2 := d
	d2.checkSum(&prefix)
	d.Write(data[n:])
	d.checkSum(&whole)
	return prefix, whole
}

func (d *digest) Reset() {
	d.s[0] = init0
	d.s[1] = init1
	d.s[2] = init2
	d.s[3] = init3
	d.nx = 0
	d.len = 0
}

func (d *digest) Size() int { return Size }

func (d *digest) BlockSize() int { return BlockSize }

func (d *digest) Write(p []byte) (n int, err error) {
	n = len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			block(d, d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	for len(p) >= BlockSize {
		block(d, p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
	return n, nil
}

func (d *digest) Sum(in []byte) []byte {
	// Make a copy so callers can keep writing.
	d2 := *d
	var out [Size]byte
	d2.checkSum(&out)
	return append(in, out[:]...)
}

// checkSum applies MD4 padding and writes the final digest into out.
func (d *digest) checkSum(out *[Size]byte) {
	lenBits := d.len << 3
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := BlockSize - (int(d.len) % BlockSize) - 8
	if padLen <= 0 {
		padLen += BlockSize
	}
	binary.LittleEndian.PutUint64(pad[padLen:], lenBits)
	d.Write(pad[:padLen+8])
	for i, v := range d.s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
}

// block processes one 64-byte block (RFC 1320 §3.4), unrolled with the
// round shift amounts as constant rotations.
func block(d *digest, p []byte) {
	_ = p[BlockSize-1]
	x0 := binary.LittleEndian.Uint32(p[0:])
	x1 := binary.LittleEndian.Uint32(p[4:])
	x2 := binary.LittleEndian.Uint32(p[8:])
	x3 := binary.LittleEndian.Uint32(p[12:])
	x4 := binary.LittleEndian.Uint32(p[16:])
	x5 := binary.LittleEndian.Uint32(p[20:])
	x6 := binary.LittleEndian.Uint32(p[24:])
	x7 := binary.LittleEndian.Uint32(p[28:])
	x8 := binary.LittleEndian.Uint32(p[32:])
	x9 := binary.LittleEndian.Uint32(p[36:])
	x10 := binary.LittleEndian.Uint32(p[40:])
	x11 := binary.LittleEndian.Uint32(p[44:])
	x12 := binary.LittleEndian.Uint32(p[48:])
	x13 := binary.LittleEndian.Uint32(p[52:])
	x14 := binary.LittleEndian.Uint32(p[56:])
	x15 := binary.LittleEndian.Uint32(p[60:])

	a, b, c, dd := d.s[0], d.s[1], d.s[2], d.s[3]

	// Round 1: F(x,y,z) = (x AND y) OR (NOT x AND z).
	a = bits.RotateLeft32(a+(((c^dd)&b)^dd)+x0, 3)
	dd = bits.RotateLeft32(dd+(((b^c)&a)^c)+x1, 7)
	c = bits.RotateLeft32(c+(((a^b)&dd)^b)+x2, 11)
	b = bits.RotateLeft32(b+(((dd^a)&c)^a)+x3, 19)
	a = bits.RotateLeft32(a+(((c^dd)&b)^dd)+x4, 3)
	dd = bits.RotateLeft32(dd+(((b^c)&a)^c)+x5, 7)
	c = bits.RotateLeft32(c+(((a^b)&dd)^b)+x6, 11)
	b = bits.RotateLeft32(b+(((dd^a)&c)^a)+x7, 19)
	a = bits.RotateLeft32(a+(((c^dd)&b)^dd)+x8, 3)
	dd = bits.RotateLeft32(dd+(((b^c)&a)^c)+x9, 7)
	c = bits.RotateLeft32(c+(((a^b)&dd)^b)+x10, 11)
	b = bits.RotateLeft32(b+(((dd^a)&c)^a)+x11, 19)
	a = bits.RotateLeft32(a+(((c^dd)&b)^dd)+x12, 3)
	dd = bits.RotateLeft32(dd+(((b^c)&a)^c)+x13, 7)
	c = bits.RotateLeft32(c+(((a^b)&dd)^b)+x14, 11)
	b = bits.RotateLeft32(b+(((dd^a)&c)^a)+x15, 19)

	// Round 2: G(x,y,z) = (x AND y) OR (x AND z) OR (y AND z).
	a = bits.RotateLeft32(a+((b&c)|((b|c)&dd))+x0+0x5a827999, 3)
	dd = bits.RotateLeft32(dd+((a&b)|((a|b)&c))+x4+0x5a827999, 5)
	c = bits.RotateLeft32(c+((dd&a)|((dd|a)&b))+x8+0x5a827999, 9)
	b = bits.RotateLeft32(b+((c&dd)|((c|dd)&a))+x12+0x5a827999, 13)
	a = bits.RotateLeft32(a+((b&c)|((b|c)&dd))+x1+0x5a827999, 3)
	dd = bits.RotateLeft32(dd+((a&b)|((a|b)&c))+x5+0x5a827999, 5)
	c = bits.RotateLeft32(c+((dd&a)|((dd|a)&b))+x9+0x5a827999, 9)
	b = bits.RotateLeft32(b+((c&dd)|((c|dd)&a))+x13+0x5a827999, 13)
	a = bits.RotateLeft32(a+((b&c)|((b|c)&dd))+x2+0x5a827999, 3)
	dd = bits.RotateLeft32(dd+((a&b)|((a|b)&c))+x6+0x5a827999, 5)
	c = bits.RotateLeft32(c+((dd&a)|((dd|a)&b))+x10+0x5a827999, 9)
	b = bits.RotateLeft32(b+((c&dd)|((c|dd)&a))+x14+0x5a827999, 13)
	a = bits.RotateLeft32(a+((b&c)|((b|c)&dd))+x3+0x5a827999, 3)
	dd = bits.RotateLeft32(dd+((a&b)|((a|b)&c))+x7+0x5a827999, 5)
	c = bits.RotateLeft32(c+((dd&a)|((dd|a)&b))+x11+0x5a827999, 9)
	b = bits.RotateLeft32(b+((c&dd)|((c|dd)&a))+x15+0x5a827999, 13)

	// Round 3: H(x,y,z) = x XOR y XOR z.
	a = bits.RotateLeft32(a+(b^c^dd)+x0+0x6ed9eba1, 3)
	dd = bits.RotateLeft32(dd+(a^b^c)+x8+0x6ed9eba1, 9)
	c = bits.RotateLeft32(c+(dd^a^b)+x4+0x6ed9eba1, 11)
	b = bits.RotateLeft32(b+(c^dd^a)+x12+0x6ed9eba1, 15)
	a = bits.RotateLeft32(a+(b^c^dd)+x2+0x6ed9eba1, 3)
	dd = bits.RotateLeft32(dd+(a^b^c)+x10+0x6ed9eba1, 9)
	c = bits.RotateLeft32(c+(dd^a^b)+x6+0x6ed9eba1, 11)
	b = bits.RotateLeft32(b+(c^dd^a)+x14+0x6ed9eba1, 15)
	a = bits.RotateLeft32(a+(b^c^dd)+x1+0x6ed9eba1, 3)
	dd = bits.RotateLeft32(dd+(a^b^c)+x9+0x6ed9eba1, 9)
	c = bits.RotateLeft32(c+(dd^a^b)+x5+0x6ed9eba1, 11)
	b = bits.RotateLeft32(b+(c^dd^a)+x13+0x6ed9eba1, 15)
	a = bits.RotateLeft32(a+(b^c^dd)+x3+0x6ed9eba1, 3)
	dd = bits.RotateLeft32(dd+(a^b^c)+x11+0x6ed9eba1, 9)
	c = bits.RotateLeft32(c+(dd^a^b)+x7+0x6ed9eba1, 11)
	b = bits.RotateLeft32(b+(c^dd^a)+x15+0x6ed9eba1, 15)

	d.s[0] += a
	d.s[1] += b
	d.s[2] += c
	d.s[3] += dd
}
