package sec

import (
	"math/big"
	"math/bits"
)

//go:generate go run montgen.go

// maxLimbs is the widest modulus, in 64-bit words, that the fixed-width
// Montgomery kernel serves: 512 bits. RSA-300 is a 5-limb N with 3-limb
// CRT primes; a 1024-bit key signs through two 8-limb halves. Wider
// moduli fall back to math/big.
const maxLimbs = 8

// nat is a little-endian fixed-width natural number. Only the first n
// limbs of a montModulus are meaningful; the rest stay zero.
type nat [maxLimbs]uint64

// montModulus holds one odd modulus and the constants its Montgomery
// arithmetic needs, computed once when the key is made. R = 2^(64n).
type montModulus struct {
	n   int    // limb count
	m   nat    // the modulus
	k   uint64 // -m⁻¹ mod 2⁶⁴
	rr  nat    // R² mod m: montMul(x, rr) converts x < R into Montgomery form
	one nat    // R mod m: 1 in Montgomery form
}

// newMontModulus precomputes the Montgomery constants for m, or returns
// nil when m is even, below 3, or wider than maxLimbs words.
func newMontModulus(m *big.Int) *montModulus {
	if m.Sign() <= 0 || m.Bit(0) == 0 || m.BitLen() < 2 || m.BitLen() > 64*maxLimbs {
		return nil
	}
	mm := &montModulus{n: (m.BitLen() + 63) / 64}
	mm.m = natFromBig(m)
	// Newton's iteration doubles the correct low bits of m⁻¹ mod 2⁶⁴ per
	// step; m0 itself is correct to 3 bits for odd m0.
	m0 := mm.m[0]
	inv := m0
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv
	}
	mm.k = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*mm.n))
	mm.one = natFromBig(new(big.Int).Mod(r, m))
	mm.rr = natFromBig(new(big.Int).Mod(new(big.Int).Mul(r, r), m))
	return mm
}

// mul sets z = x·y·R⁻¹ mod m.
func (mm *montModulus) mul(z, x, y *nat) { montMul(z, x, y, &mm.m, mm.k, mm.n) }

// toMont returns x·R mod m, for any x < R (x need not be reduced).
func (mm *montModulus) toMont(x *nat) nat {
	var z nat
	mm.mul(&z, x, &mm.rr)
	return z
}

// fromMont returns x·R⁻¹ mod m: the normal form of Montgomery-form x.
func (mm *montModulus) fromMont(x *nat) nat {
	one := nat{1}
	var z nat
	mm.mul(&z, x, &one)
	return z
}

// exp returns x^e in Montgomery form, for x in Montgomery form and e a
// little-endian exponent. One-word exponents (the public 65537) use plain
// left-to-right square-and-multiply; longer ones a fixed 4-bit window,
// like math/big, over a table kept on the stack.
func (mm *montModulus) exp(x *nat, e []uint64) nat {
	top := len(e) - 1
	for top >= 0 && e[top] == 0 {
		top--
	}
	z := mm.one
	if top < 0 {
		return z // x^0 = 1
	}
	if top == 0 {
		w := e[0]
		z = *x
		for i := bits.Len64(w) - 2; i >= 0; i-- {
			mm.mul(&z, &z, &z)
			if w>>uint(i)&1 == 1 {
				mm.mul(&z, &z, x)
			}
		}
		return z
	}
	var table [16]nat
	table[0] = mm.one
	table[1] = *x
	for i := 2; i < 16; i++ {
		mm.mul(&table[i], &table[i-1], x)
	}
	started := false
	for i := top; i >= 0; i-- {
		w := e[i]
		for j := 60; j >= 0; j -= 4 {
			nib := w >> uint(j) & 0xf
			if !started {
				if nib == 0 {
					continue
				}
				z = table[nib]
				started = true
				continue
			}
			mm.mul(&z, &z, &z)
			mm.mul(&z, &z, &z)
			mm.mul(&z, &z, &z)
			mm.mul(&z, &z, &z)
			if nib != 0 {
				mm.mul(&z, &z, &table[nib])
			}
		}
	}
	return z
}

// sub returns x - y mod m for reduced x and y.
func (mm *montModulus) sub(x, y *nat) nat {
	var z nat
	var b uint64
	for i := 0; i < mm.n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	if b != 0 {
		var c uint64
		for i := 0; i < mm.n; i++ {
			z[i], c = bits.Add64(z[i], mm.m[i], c)
		}
	}
	return z
}

// less reports x < m over the first n limbs.
func (mm *montModulus) less(x *nat) bool {
	for i := mm.n - 1; i >= 0; i-- {
		if x[i] != mm.m[i] {
			return x[i] < mm.m[i]
		}
	}
	return false
}

// madd2 returns the 128-bit a·b + c + d as (hi, lo); it cannot overflow.
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	c, carry := bits.Add64(c, d, 0)
	hi += carry
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return
}

// natFromBytes decodes big-endian b into n limbs, ignoring leading zero
// bytes. ok is false when the value does not fit in n limbs.
func natFromBytes(b []byte, n int) (z nat, ok bool) {
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) > 8*n {
		return z, false
	}
	for i := 0; i < len(b); i++ {
		z[i/8] |= uint64(b[len(b)-1-i]) << (8 * uint(i%8))
	}
	return z, true
}

// natFromBig converts x, which must fit in maxLimbs words, to a nat.
func natFromBig(x *big.Int) nat {
	var buf [8 * maxLimbs]byte
	z, _ := natFromBytes(x.FillBytes(buf[:]), maxLimbs)
	return z
}

// limbs returns x's little-endian 64-bit words, independent of the
// platform's big.Word size.
func limbs(x *big.Int) []uint64 {
	b := x.Bytes()
	out := make([]uint64, (len(b)+7)/8)
	for i := 0; i < len(b); i++ {
		out[i/8] |= uint64(b[len(b)-1-i]) << (8 * uint(i%8))
	}
	return out
}

// bytesOf returns the minimal big-endian encoding of the little-endian
// words x, exactly as big.Int.Bytes would (empty for zero).
func bytesOf(x []uint64) []byte {
	buf := make([]byte, 8*len(x))
	for i, w := range x {
		for j := 0; j < 8; j++ {
			buf[len(buf)-1-8*i-j] = byte(w >> (8 * uint(j)))
		}
	}
	i := 0
	for i < len(buf) && buf[i] == 0 {
		i++
	}
	return buf[i:]
}

// crtKey is the Montgomery form of a CRT private key. a and b are the two
// primes, ordered so that b has no more limbs than a; the signature is
// recombined by Garner's formula s = sb + b·((sa - sb)·b⁻¹ mod a).
type crtKey struct {
	a, b   *montModulus
	ea, eb []uint64 // d mod (a-1), d mod (b-1)
	binv   nat      // b⁻¹ mod a, normal form
}

// newCRTKey precomputes the kernel constants for a CRT keypair, or
// returns nil when a prime is too wide for the kernel.
func newCRTKey(p, q, dp, dq, qinv *big.Int) *crtKey {
	mp, mq := newMontModulus(p), newMontModulus(q)
	if mp == nil || mq == nil {
		return nil
	}
	if mq.n <= mp.n {
		return &crtKey{a: mp, b: mq, ea: limbs(dp), eb: limbs(dq), binv: natFromBig(qinv)}
	}
	pinv := new(big.Int).ModInverse(p, q)
	return &crtKey{a: mq, b: mp, ea: limbs(dq), eb: limbs(dp), binv: natFromBig(pinv)}
}

// sign returns digest^d mod N, or ok false when the digest is too wide to
// enter both halves without a prior reduction mod N.
func (c *crtKey) sign(digest []byte) (sig []byte, ok bool) {
	x, ok := natFromBytes(digest, c.b.n)
	if !ok {
		return nil, false
	}
	// x mod a and x mod b equal (x mod N) mod a and mod b, so the digest
	// enters each half without first being reduced mod N.
	xa := c.a.toMont(&x)
	xb := c.b.toMont(&x)
	sa := c.a.exp(&xa, c.ea)
	sbm := c.b.exp(&xb, c.eb)
	sb := c.b.fromMont(&sbm)
	// sb < b < 2^(64·b.n) ≤ R_a, so toMont also reduces it mod a.
	sba := c.a.toMont(&sb)
	diff := c.a.sub(&sa, &sba)
	var h nat
	c.a.mul(&h, &diff, &c.binv)
	// s = sb + h·b, at most a.n + b.n ≤ 2·maxLimbs words.
	var s [2 * maxLimbs]uint64
	copy(s[:], sb[:c.b.n])
	for i := 0; i < c.a.n; i++ {
		var carry uint64
		for j := 0; j < c.b.n; j++ {
			carry, s[i+j] = madd2(h[i], c.b.m[j], s[i+j], carry)
		}
		for k := i + c.b.n; carry != 0; k++ {
			s[k], carry = bits.Add64(s[k], carry, 0)
		}
	}
	return bytesOf(s[:c.a.n+c.b.n]), true
}

// verify reports whether sig^e ≡ digest (mod m), comparing in Montgomery
// form. ok is false when the digest is too wide for the kernel, in which
// case the caller decides with math/big.
func (mm *montModulus) verify(digest, sig []byte, e []uint64) (valid, ok bool) {
	d, ok := natFromBytes(digest, mm.n)
	if !ok {
		return false, false
	}
	s, fits := natFromBytes(sig, mm.n)
	if !fits || !mm.less(&s) {
		return false, true // signature ≥ N
	}
	sm := mm.toMont(&s)
	got := mm.exp(&sm, e)
	want := mm.toMont(&d)
	return got == want, true
}
