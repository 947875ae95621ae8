package wire

import (
	"bytes"
	"testing"

	"immune/internal/ids"
	"immune/internal/sec"
)

// The wire decoders sit directly on the network trust boundary: every
// byte they see may have been corrupted in transit or forged by a faulty
// processor (paper §3). The fuzz targets pin the package contract — a
// hostile payload surfaces as a decode error, never as a panic — and the
// canonical-encoding property: a successfully decoded message re-encodes,
// field by field, to exactly the input bytes.

// fuzzSeedToken is a representative fully populated token encoding.
func fuzzSeedToken() []byte {
	t := &Token{
		Sender: 3, Ring: 1, Visit: 7, Seq: 42, Aru: 40, AruSetter: 2,
		RtrList: []uint64{41, 42},
		DigestList: []DigestEntry{
			{Seq: 41, Digest: sec.Digest([]byte("a"))},
			{Seq: 42, Digest: sec.Digest([]byte("b"))},
		},
		PrevTokenDigest: sec.Digest([]byte("prev")),
		RtgList:         []RtgEntry{{Seq: 41, Retransmitter: 2}},
		Signature:       []byte{0xde, 0xad, 0xbe, 0xef},
	}
	return t.Marshal()
}

func FuzzUnmarshalToken(f *testing.F) {
	f.Add(fuzzSeedToken())
	f.Add((&Token{Sender: 1, Ring: 1, Visit: 1}).Marshal())
	f.Add([]byte{byte(KindToken)})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		tok, err := UnmarshalToken(payload)
		if err != nil {
			return
		}
		_ = tok.WellFormed() // must not panic on any decodable token
		fresh := &Token{
			Sender: tok.Sender, Ring: tok.Ring, Visit: tok.Visit,
			Seq: tok.Seq, Aru: tok.Aru, AruSetter: tok.AruSetter,
			RtrList: tok.RtrList, DigestList: tok.DigestList,
			PrevTokenDigest: tok.PrevTokenDigest, RtgList: tok.RtgList,
			Signature: tok.Signature,
		}
		if !bytes.Equal(fresh.Marshal(), payload) {
			t.Fatalf("token re-encode differs from input:\n in  %x\n out %x", payload, fresh.Marshal())
		}
		if !bytes.Equal(tok.Marshal(), payload) {
			t.Fatal("decoded token's memoized encoding differs from input")
		}
	})
}

func FuzzUnmarshalRegular(f *testing.F) {
	f.Add((&Regular{Sender: 2, Ring: 1, Seq: 9, Contents: []byte("hello")}).Marshal())
	f.Add((&Regular{Sender: 1, Ring: 1, Seq: 1}).Marshal())
	f.Add([]byte{byte(KindRegular), 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := UnmarshalRegular(payload)
		if err != nil {
			return
		}
		fresh := &Regular{Sender: m.Sender, Ring: m.Ring, Seq: m.Seq, Contents: m.Contents}
		if !bytes.Equal(fresh.Marshal(), payload) {
			t.Fatalf("regular re-encode differs from input")
		}
		if m.Digest() != sec.Digest(payload) {
			t.Fatal("memoized digest differs from digest of input bytes")
		}
	})
}

func FuzzUnmarshalMembership(f *testing.F) {
	seed := &Membership{
		Sender: 2, Kind: MembershipPropose, Attempt: 3, InstallID: 5,
		NewRing: 2, Delivered: 17,
		Members:   []ids.ProcessorID{1, 2, 3},
		Suspects:  []ids.ProcessorID{4},
		Signature: []byte{1, 2, 3},
	}
	f.Add(seed.Marshal())
	f.Add((&Membership{Sender: 1, Kind: MembershipAnnounce}).Marshal())
	f.Add([]byte{byte(KindMembership)})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := UnmarshalMembership(payload)
		if err != nil {
			return
		}
		fresh := &Membership{
			Sender: m.Sender, Kind: m.Kind, Attempt: m.Attempt,
			InstallID: m.InstallID, NewRing: m.NewRing, Delivered: m.Delivered,
			Members: m.Members, Suspects: m.Suspects, Signature: m.Signature,
		}
		if !bytes.Equal(fresh.Marshal(), payload) {
			t.Fatal("membership re-encode differs from input")
		}
	})
}

func FuzzUnmarshalFlush(f *testing.F) {
	seed := &Flush{
		Sender: 1, Ring: 1, Delivered: 12,
		Digests:   []DigestEntry{{Seq: 13, Digest: sec.Digest([]byte("m13"))}},
		Signature: []byte{9, 9},
	}
	f.Add(seed.Marshal())
	f.Add((&Flush{Sender: 2, Ring: 3}).Marshal())
	f.Add([]byte{byte(KindFlush), 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		fl, err := UnmarshalFlush(payload)
		if err != nil {
			return
		}
		fresh := &Flush{
			Sender: fl.Sender, Ring: fl.Ring, Delivered: fl.Delivered,
			Digests: fl.Digests, Signature: fl.Signature,
		}
		if !bytes.Equal(fresh.Marshal(), payload) {
			t.Fatal("flush re-encode differs from input")
		}
	})
}

func FuzzUnmarshalWake(f *testing.F) {
	f.Add((&Wake{Ring: 3}).Marshal())
	f.Add([]byte{byte(KindWake)})
	f.Add([]byte{byte(KindWake), 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, payload []byte) {
		w, err := UnmarshalWake(payload)
		if err != nil {
			return
		}
		if !bytes.Equal((&Wake{Ring: w.Ring}).Marshal(), payload) {
			t.Fatal("wake re-encode differs from input")
		}
	})
}

// FuzzPeekKind: classification of arbitrary bytes must never panic and
// must agree with the full decoders on the kind tag.
func FuzzPeekKind(f *testing.F) {
	f.Add([]byte{byte(KindToken), 1, 2, 3})
	f.Add([]byte{0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		k, err := PeekKind(payload)
		if err != nil {
			return
		}
		if k != Kind(payload[0]) {
			t.Fatalf("PeekKind = %v for leading byte %d", k, payload[0])
		}
	})
}
