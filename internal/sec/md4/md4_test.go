package md4

import (
	"bytes"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// rfc1320Vectors are the official test vectors from RFC 1320 appendix A.5.
var rfc1320Vectors = []struct {
	in   string
	want string
}{
	{"", "31d6cfe0d16ae931b73c59d7e0c089c0"},
	{"a", "bde52cb31de33e46245e05fbdbd6fb24"},
	{"abc", "a448017aaf21d8525fc10ae87aa6729d"},
	{"message digest", "d9130a8164549fe818874806e1c7014b"},
	{"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"},
	{
		"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
		"043f8582f241db351ce627e153e7f0e4",
	},
	{
		"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
		"e33b4ddc9c38f2199c3e7b164fcc0536",
	},
}

func TestRFC1320Vectors(t *testing.T) {
	for _, tc := range rfc1320Vectors {
		got := Sum([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Sum(%q) = %x, want %s", tc.in, got, tc.want)
		}
	}
}

func TestStreamingMatchesOneShot(t *testing.T) {
	msg := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 40))
	for _, chunk := range []int{1, 3, 7, 63, 64, 65, 128, 1000} {
		h := New()
		for i := 0; i < len(msg); i += chunk {
			end := i + chunk
			if end > len(msg) {
				end = len(msg)
			}
			h.Write(msg[i:end])
		}
		got := h.Sum(nil)
		want := Sum(msg)
		if !bytes.Equal(got, want[:]) {
			t.Errorf("chunk %d: streaming digest %x != one-shot %x", chunk, got, want)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	h := New()
	h.Write([]byte("hello"))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("Sum not idempotent: %x then %x", first, second)
	}
	h.Write([]byte(" world"))
	got := h.Sum(nil)
	want := Sum([]byte("hello world"))
	if !bytes.Equal(got, want[:]) {
		t.Fatalf("continued digest %x, want %x", got, want)
	}
}

func TestReset(t *testing.T) {
	h := New()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	got := h.Sum(nil)
	want := Sum([]byte("abc"))
	if !bytes.Equal(got, want[:]) {
		t.Fatalf("after Reset digest %x, want %x", got, want)
	}
}

func TestSizes(t *testing.T) {
	h := New()
	if h.Size() != Size || Size != 16 {
		t.Fatalf("Size() = %d, want 16", h.Size())
	}
	if h.BlockSize() != BlockSize || BlockSize != 64 {
		t.Fatalf("BlockSize() = %d, want 64", h.BlockSize())
	}
}

// TestPaddingBoundaries exercises message lengths around the 56-byte and
// 64-byte padding boundaries, where off-by-one bugs in padding live.
func TestPaddingBoundaries(t *testing.T) {
	for n := 50; n <= 70; n++ {
		msg := bytes.Repeat([]byte{'x'}, n)
		oneShot := Sum(msg)
		h := New()
		h.Write(msg[:n/2])
		h.Write(msg[n/2:])
		if got := h.Sum(nil); !bytes.Equal(got, oneShot[:]) {
			t.Errorf("len %d: streaming %x != one-shot %x", n, got, oneShot)
		}
	}
}

// TestChunkedMatchesOneShotAllLengths feeds every length 0–300 through
// the streaming writer in several chunk sizes, and through SumPrefix at
// every split point, crossing the 55/56/64-byte padding edges many times.
func TestChunkedMatchesOneShotAllLengths(t *testing.T) {
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i*131 + i>>3)
	}
	for n := 0; n <= len(msg); n++ {
		data := msg[:n]
		want := Sum(data)
		for _, chunk := range []int{1, 5, 55, 56, 63, 64, 65} {
			h := New()
			for i := 0; i < n; i += chunk {
				h.Write(data[i:min(i+chunk, n)])
			}
			if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
				t.Fatalf("len %d chunk %d: streaming %x != one-shot %x", n, chunk, got, want)
			}
		}
		for split := 0; split <= n; split++ {
			prefix, whole := SumPrefix(data, split)
			if whole != want || prefix != Sum(data[:split]) {
				t.Fatalf("len %d split %d: SumPrefix disagrees with Sum", n, split)
			}
		}
	}
}

// TestDeterministic verifies the digest is a pure function of the input.
func TestDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		a := Sum(data)
		b := Sum(data)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctInputsDistinctDigests is a smoke check that small perturbations
// change the digest (not a collision-resistance proof, just a sanity check
// that all input bytes are absorbed).
func TestDistinctInputsDistinctDigests(t *testing.T) {
	f := func(data []byte, i uint8) bool {
		if len(data) == 0 {
			return true
		}
		idx := int(i) % len(data)
		mutated := append([]byte(nil), data...)
		mutated[idx] ^= 0xff
		return Sum(data) != Sum(mutated)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMD4(b *testing.B) {
	for _, size := range []int{64, 1024, 8192} {
		data := bytes.Repeat([]byte{0xab}, size)
		b.Run("size="+strconv.Itoa(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				Sum(data)
			}
		})
	}
}
