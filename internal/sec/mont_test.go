package sec

import (
	"bytes"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"immune/internal/ids"
)

// diffModulusBits are the modulus sizes the kernel is checked at: one and
// two limbs, the paper's RSA-300, the widest kernel modulus, and a size
// whose N verifies over math/big while its CRT halves use the kernel.
var diffModulusBits = []int{64, 128, 300, 512, 1024}

// bigReference returns a copy of kp stripped of its kernel constants, so
// Sign and Verify take the math/big path the kernel must reproduce.
func bigReference(kp *KeyPair) *KeyPair {
	ref := *kp
	ref.crt = nil
	ref.pub.mont = nil
	ref.pub.e = nil
	return &ref
}

// edgeDigests are inputs at the boundaries of the arithmetic: zero, one,
// N-1, and values at and beyond N that Sign reduces.
func edgeDigests(n *big.Int) [][]byte {
	one := big.NewInt(1)
	return [][]byte{
		{0},
		{1},
		new(big.Int).Sub(n, one).Bytes(),
		n.Bytes(),
		new(big.Int).Add(n, one).Bytes(),
		bytes.Repeat([]byte{0xff}, 16),
		bytes.Repeat([]byte{0xff}, 32),
		append([]byte{0, 0, 0}, 7), // leading zeros are ignored
	}
}

func TestKernelSignVerifyMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range diffModulusBits {
		for seed := uint64(0); seed < 3; seed++ {
			kp := testKeyPair(t, bits, 500+uint64(bits)+seed)
			ref := bigReference(kp)
			n := kp.Public().N
			digests := edgeDigests(n)
			for i := 0; i < 20; i++ {
				d := make([]byte, 16)
				rng.Read(d)
				digests = append(digests, d)
			}
			for _, d := range digests {
				got, err := kp.Sign(d)
				if err != nil {
					t.Fatalf("%d bits: Sign(%x): %v", bits, d, err)
				}
				want, err := ref.Sign(d)
				if err != nil {
					t.Fatalf("%d bits: reference Sign(%x): %v", bits, d, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d bits: Sign(%x) = %x, math/big gives %x", bits, d, got, want)
				}
				checkVerify(t, kp, ref, d, got)
				bad := append([]byte(nil), got...)
				if len(bad) > 0 {
					bad[len(bad)-1] ^= 1
				}
				checkVerify(t, kp, ref, d, bad)
			}
			// Signatures at and beyond N are rejected, N-1 and zero are
			// judged like any other value.
			one := big.NewInt(1)
			d := digests[len(digests)-1]
			for _, sig := range [][]byte{
				n.Bytes(),
				new(big.Int).Add(n, one).Bytes(),
				bytes.Repeat([]byte{0xff}, 8*maxLimbs+8),
				new(big.Int).Sub(n, one).Bytes(),
				{0},
				{1},
				nil,
			} {
				checkVerify(t, kp, ref, d, sig)
				checkVerify(t, kp, ref, nil, sig)
			}
		}
	}
}

func checkVerify(t *testing.T, kp, ref *KeyPair, digest, sig []byte) {
	t.Helper()
	got := kp.Public().Verify(digest, sig)
	want := ref.Public().Verify(digest, sig)
	if got != want {
		t.Fatalf("%d bits: Verify(%x, %x) = %v, math/big gives %v",
			kp.Public().N.BitLen(), digest, sig, got, want)
	}
}

func TestKernelCoversPaperKey(t *testing.T) {
	kp := testKeyPair(t, DefaultModulusBits, 1)
	if kp.crt == nil || kp.pub.mont == nil {
		t.Fatal("RSA-300 key has no Montgomery constants")
	}
	if kp.pub.mont.n != 5 || kp.crt.a.n != 3 || kp.crt.b.n != 3 {
		t.Fatalf("RSA-300 limbs: N %d, primes %d/%d; want 5, 3/3",
			kp.pub.mont.n, kp.crt.a.n, kp.crt.b.n)
	}
	wide := testKeyPair(t, 1024, 1)
	if wide.pub.mont != nil || wide.crt == nil {
		t.Fatal("1024-bit key: N must verify over math/big and its 512-bit halves sign in the kernel")
	}
}

// modExp computes x^e mod m through the kernel, or reports false when m
// is outside its range.
func modExp(m, x, e *big.Int) (*big.Int, bool) {
	mm := newMontModulus(m)
	if mm == nil {
		return nil, false
	}
	xr := new(big.Int).Mod(x, m)
	xn := natFromBig(xr)
	xm := mm.toMont(&xn)
	zm := mm.exp(&xm, limbs(e))
	z := mm.fromMont(&zm)
	return new(big.Int).SetBytes(bytesOf(z[:mm.n])), true
}

func TestModExpMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{2, 63, 64, 65, 128, 150, 256, 300, 448, 511, 512} {
		for i := 0; i < 40; i++ {
			m := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			m.SetBit(m, bits-1, 1)
			m.SetBit(m, 0, 1)
			x := new(big.Int).Rand(rng, m)
			e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(rng.Intn(600))))
			if i%10 == 0 {
				x.Sub(m, big.NewInt(1))
			}
			if i%10 == 1 {
				e.SetInt64(65537)
			}
			got, ok := modExp(m, x, e)
			if !ok {
				t.Fatalf("%d-bit modulus rejected by the kernel", bits)
			}
			if want := new(big.Int).Exp(x, e, m); got.Cmp(want) != 0 {
				t.Fatalf("%x^%x mod %x = %x, math/big gives %x", x, e, m, got, want)
			}
		}
	}
	for _, m := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(10), new(big.Int).Lsh(big.NewInt(1), 513)} {
		if newMontModulus(m) != nil {
			t.Fatalf("kernel accepted modulus %x", m)
		}
	}
}

func FuzzModExpMatchesBig(f *testing.F) {
	f.Add([]byte{0x0f}, []byte{0x02}, []byte{0x03})
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xfe}, 64), []byte{0x01, 0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xab}, 38), []byte{}, bytes.Repeat([]byte{0xcd}, 19))
	f.Fuzz(func(t *testing.T, mb, xb, eb []byte) {
		if len(mb) > 8*maxLimbs || len(eb) > 8*maxLimbs {
			return
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 0, 1)
		if m.BitLen() < 2 {
			return
		}
		x := new(big.Int).SetBytes(xb)
		e := new(big.Int).SetBytes(eb)
		got, ok := modExp(m, x, e)
		if !ok {
			t.Fatalf("%d-bit odd modulus rejected by the kernel", m.BitLen())
		}
		if want := new(big.Int).Exp(x, e, m); got.Cmp(want) != 0 {
			t.Fatalf("%x^%x mod %x = %x, math/big gives %x", x, e, m, got, want)
		}
	})
}

// TestKernelAllocs pins the allocation cost of the RSA-300 hot path: a
// signature allocates only its returned bytes, a verification nothing.
func TestKernelAllocs(t *testing.T) {
	kp := testKeyPair(t, DefaultModulusBits, 1)
	d := Digest([]byte("alloc budget"))
	sig, err := kp.Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	pub := kp.Public()
	if got := testing.AllocsPerRun(100, func() { _, _ = kp.Sign(d[:]) }); got > 1 {
		t.Errorf("Sign costs %.1f allocs/op, want at most 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { pub.Verify(d[:], sig) }); got > 0 {
		t.Errorf("Verify costs %.1f allocs/op, want 0", got)
	}
}

// TestVerifyTokenBatchConcurrent runs batch verifications, which fan out
// across workers, from several goroutines at once over shared keys: the
// kernel's per-key constants are read-only and its scratch space is per
// call, so every verdict must match the serial one.
func TestVerifyTokenBatchConcurrent(t *testing.T) {
	kr := NewKeyRing()
	suites := make([]*Suite, 3)
	for i := range suites {
		p := ids.ProcessorID(i + 1)
		kp := testKeyPair(t, DefaultModulusBits, 900+uint64(i))
		kr.Register(p, kp.Public())
		s, err := NewSuite(LevelSignatures, p, kp, kr)
		if err != nil {
			t.Fatal(err)
		}
		suites[i] = s
	}
	var items []TokenVerification
	var want []bool
	for i := 0; i < 24; i++ {
		signer := suites[i%3]
		msg := []byte{byte(i), 't', 'o', 'k'}
		sig, err := signer.SignToken(msg)
		if err != nil {
			t.Fatal(err)
		}
		sender := signer.Self
		valid := i%4 != 3
		if !valid {
			sender = suites[(i+1)%3].Self // signature under another key
		}
		it := TokenVerification{Sender: sender, Signed: msg, Sig: sig}
		if i%2 == 0 {
			d := Digest(msg)
			it.Digest = &d
		}
		items = append(items, it)
		want = append(want, valid)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got := suites[0].VerifyTokenBatch(items)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("item %d: verdict %v, want %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
