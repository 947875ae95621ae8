package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"immune/internal/ids"
	"immune/internal/sec"
)

func TestRegularRoundTrip(t *testing.T) {
	cases := []*Regular{
		{Sender: 1, Ring: 2, Seq: 3, Contents: []byte("hello")},
		{Sender: 0, Ring: 0, Seq: 0, Contents: nil},
		{Sender: 0xfffffffe, Ring: 0xffffffff, Seq: ^uint64(0), Contents: bytes.Repeat([]byte{0xaa}, 1000)},
	}
	for _, m := range cases {
		enc := m.Marshal()
		got, err := UnmarshalRegular(enc)
		if err != nil {
			t.Fatalf("unmarshal %+v: %v", m, err)
		}
		if got.Sender != m.Sender || got.Ring != m.Ring || got.Seq != m.Seq ||
			!bytes.Equal(got.Contents, m.Contents) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, m)
		}
	}
}

func TestRegularRoundTripProperty(t *testing.T) {
	f := func(sender uint32, ring uint32, seq uint64, contents []byte) bool {
		m := &Regular{
			Sender: ids.ProcessorID(sender), Ring: ids.RingID(ring),
			Seq: seq, Contents: contents,
		}
		got, err := UnmarshalRegular(m.Marshal())
		if err != nil {
			return false
		}
		return got.Sender == m.Sender && got.Ring == m.Ring && got.Seq == m.Seq &&
			bytes.Equal(got.Contents, m.Contents)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sampleToken() *Token {
	return &Token{
		Sender:    3,
		Ring:      7,
		Visit:     41,
		Seq:       100,
		Aru:       95,
		AruSetter: 2,
		RtrList:   []uint64{96, 97, 99},
		DigestList: []DigestEntry{
			{Seq: 100, Digest: sec.Digest([]byte("m100"))},
			{Seq: 99, Digest: sec.Digest([]byte("m99"))},
		},
		PrevTokenDigest: sec.Digest([]byte("prev token")),
		RtgList:         []RtgEntry{{Seq: 96, Retransmitter: 1}},
		Signature:       []byte{9, 8, 7},
	}
}

func TestTokenRoundTrip(t *testing.T) {
	tok := sampleToken()
	got, err := UnmarshalToken(tok.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tok) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tok)
	}
}

func TestTokenRoundTripEmptyLists(t *testing.T) {
	tok := &Token{Sender: 1, Ring: 1, Seq: 0, Aru: 0}
	got, err := UnmarshalToken(tok.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RtrList != nil || got.DigestList != nil || got.RtgList != nil || got.Signature != nil {
		t.Fatalf("empty lists decoded as non-nil: %+v", got)
	}
}

func TestSignedPortionExcludesSignature(t *testing.T) {
	tok := sampleToken()
	withSig := *tok
	withoutSig := *tok
	withoutSig.Signature = nil
	if !bytes.Equal(withSig.SignedPortion(), withoutSig.SignedPortion()) {
		t.Fatal("SignedPortion depends on signature field")
	}
	if bytes.Equal(withSig.Marshal(), withoutSig.Marshal()) {
		t.Fatal("Marshal ignores signature field")
	}
}

func TestTokenDigestChaining(t *testing.T) {
	t1 := sampleToken()
	t2 := sampleToken()
	t2.Seq = 101 // mutant: same identity, different contents
	if t1.Digest() == t2.Digest() {
		t.Fatal("distinct tokens share a digest")
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	m := &Membership{
		Sender:    4,
		Kind:      MembershipPropose,
		Attempt:   2,
		InstallID: 5,
		NewRing:   9,
		Members:   []ids.ProcessorID{1, 2, 4},
		Suspects:  []ids.ProcessorID{3},
		Signature: []byte{1, 2, 3},
	}
	got, err := UnmarshalMembership(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMembershipRejectsBadKind(t *testing.T) {
	m := &Membership{Sender: 1, Kind: MembershipKind(99), Members: []ids.ProcessorID{1}}
	if _, err := UnmarshalMembership(m.Marshal()); err == nil {
		t.Fatal("invalid membership kind accepted")
	}
}

func TestPeekKind(t *testing.T) {
	reg := (&Regular{Sender: 1}).Marshal()
	tok := (&Token{Sender: 1}).Marshal()
	mem := (&Membership{Sender: 1, Kind: MembershipCommit}).Marshal()

	for _, tc := range []struct {
		payload []byte
		want    Kind
	}{{reg, KindRegular}, {tok, KindToken}, {mem, KindMembership}} {
		k, err := PeekKind(tc.payload)
		if err != nil || k != tc.want {
			t.Fatalf("PeekKind = (%v, %v), want %v", k, err, tc.want)
		}
	}
	if _, err := PeekKind(nil); err == nil {
		t.Fatal("PeekKind accepted empty payload")
	}
	if _, err := PeekKind([]byte{0x7f}); err == nil {
		t.Fatal("PeekKind accepted unknown kind")
	}
}

func TestCrossKindUnmarshalFails(t *testing.T) {
	reg := (&Regular{Sender: 1}).Marshal()
	if _, err := UnmarshalToken(reg); err == nil {
		t.Fatal("token decoder accepted a regular message")
	}
	tok := (&Token{Sender: 1}).Marshal()
	if _, err := UnmarshalRegular(tok); err == nil {
		t.Fatal("regular decoder accepted a token")
	}
	if _, err := UnmarshalMembership(tok); err == nil {
		t.Fatal("membership decoder accepted a token")
	}
}

// TestTruncationNeverPanics truncates valid encodings at every byte offset;
// the decoders must return errors, never panic.
func TestTruncationNeverPanics(t *testing.T) {
	encodings := [][]byte{
		(&Regular{Sender: 1, Ring: 2, Seq: 3, Contents: []byte("abcdef")}).Marshal(),
		sampleToken().Marshal(),
		(&Membership{
			Sender: 1, Kind: MembershipCommit, InstallID: 1,
			Members: []ids.ProcessorID{1, 2}, Signature: []byte{5},
		}).Marshal(),
	}
	for _, enc := range encodings {
		for cut := 0; cut < len(enc); cut++ {
			trunc := enc[:cut]
			if _, err := UnmarshalRegular(trunc); err == nil && cut < len(enc) {
				k, _ := PeekKind(enc)
				if k == KindRegular {
					t.Fatalf("truncated regular at %d decoded", cut)
				}
			}
			_, _ = UnmarshalToken(trunc)
			_, _ = UnmarshalMembership(trunc)
		}
	}
}

// TestRandomBytesNeverPanic fuzzes the decoders with random payloads.
func TestRandomBytesNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = UnmarshalRegular(data)
		_, _ = UnmarshalToken(data)
		_, _ = UnmarshalMembership(data)
		_, _ = PeekKind(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	enc := append((&Regular{Sender: 1, Contents: []byte("x")}).Marshal(), 0xee)
	if _, err := UnmarshalRegular(enc); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestHugeLengthRejected(t *testing.T) {
	// A regular message with a corrupted 4 GiB contents length.
	m := &Regular{Sender: 1, Contents: []byte("x")}
	enc := m.Marshal()
	// Contents length field sits after kind(1)+sender(4)+ring(4)+seq(8).
	enc[17] = 0xff
	enc[18] = 0xff
	enc[19] = 0xff
	enc[20] = 0xff
	if _, err := UnmarshalRegular(enc); err == nil {
		t.Fatal("huge length accepted")
	}
}

func TestWellFormed(t *testing.T) {
	good := sampleToken()
	if err := good.WellFormed(); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
	cases := map[string]func(*Token){
		"aru>seq":          func(tk *Token) { tk.Aru = tk.Seq + 1 },
		"rtr>seq":          func(tk *Token) { tk.RtrList = []uint64{tk.Seq + 1} },
		"rtr not sorted":   func(tk *Token) { tk.RtrList = []uint64{5, 4} },
		"rtr duplicate":    func(tk *Token) { tk.RtrList = []uint64{5, 5} },
		"digest seq > seq": func(tk *Token) { tk.DigestList = []DigestEntry{{Seq: tk.Seq + 1}} },
		"rtg seq > seq":    func(tk *Token) { tk.RtgList = []RtgEntry{{Seq: tk.Seq + 1}} },
	}
	for name, mutate := range cases {
		tok := sampleToken()
		mutate(tok)
		if err := tok.WellFormed(); err == nil {
			t.Errorf("%s: malformed token accepted", name)
		}
	}
}

func TestSortAndSameMembers(t *testing.T) {
	got := SortProcessors([]ids.ProcessorID{3, 1, 2})
	if !SameMembers(got, []ids.ProcessorID{1, 2, 3}) {
		t.Fatalf("sorted = %v", got)
	}
	if SameMembers([]ids.ProcessorID{1, 2}, []ids.ProcessorID{1, 2, 3}) {
		t.Fatal("different lengths reported equal")
	}
	if SameMembers([]ids.ProcessorID{1, 4}, []ids.ProcessorID{1, 3}) {
		t.Fatal("different members reported equal")
	}
}

func TestRegularDigestBindsAllFields(t *testing.T) {
	base := &Regular{Sender: 1, Ring: 1, Seq: 1, Contents: []byte("c")}
	variants := []*Regular{
		{Sender: 2, Ring: 1, Seq: 1, Contents: []byte("c")},
		{Sender: 1, Ring: 2, Seq: 1, Contents: []byte("c")},
		{Sender: 1, Ring: 1, Seq: 2, Contents: []byte("c")},
		{Sender: 1, Ring: 1, Seq: 1, Contents: []byte("d")},
	}
	d := base.Digest()
	for i, v := range variants {
		if v.Digest() == d {
			t.Errorf("variant %d digest collides with base", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindRegular.String() != "regular" || KindToken.String() != "token" ||
		KindMembership.String() != "membership" || Kind(0).String() != "Kind(0)" {
		t.Fatal("kind strings wrong")
	}
	if MembershipPropose.String() != "propose" || MembershipCommit.String() != "commit" ||
		MembershipKind(0).String() != "MembershipKind(0)" {
		t.Fatal("membership kind strings wrong")
	}
}

func TestAnnounceRoundTrip(t *testing.T) {
	m := &Membership{
		Sender:    1,
		Kind:      MembershipAnnounce,
		InstallID: 7,
		NewRing:   11,
		Members:   []ids.ProcessorID{1, 2, 3, 4, 5},
		Signature: []byte{9, 8},
	}
	got, err := UnmarshalMembership(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if MembershipAnnounce.String() != "announce" {
		t.Fatalf("String() = %q", MembershipAnnounce.String())
	}
	if _, err := UnmarshalMembership((&Membership{Sender: 1,
		Kind: MembershipLeave, Members: []ids.ProcessorID{1}}).Marshal()); err != nil {
		t.Fatalf("leave kind rejected: %v", err)
	}
	if MembershipLeave.String() != "leave" {
		t.Fatalf("String() = %q", MembershipLeave.String())
	}
	if _, err := UnmarshalMembership((&Membership{Sender: 1,
		Kind: MembershipLeave + 1, Members: []ids.ProcessorID{1}}).Marshal()); err == nil {
		t.Fatal("kind past leave accepted")
	}
}

func TestWakeRoundTrip(t *testing.T) {
	enc := (&Wake{Ring: 7}).Marshal()
	if len(enc) != wakeSize {
		t.Fatalf("wake encodes to %d bytes, want %d", len(enc), wakeSize)
	}
	k, err := PeekKind(enc)
	if err != nil || k != KindWake {
		t.Fatalf("PeekKind = (%v, %v), want wake", k, err)
	}
	w, err := UnmarshalWake(enc)
	if err != nil || w.Ring != 7 {
		t.Fatalf("UnmarshalWake = (%+v, %v)", w, err)
	}
	if KindWake.String() != "wake" {
		t.Fatalf("String() = %q", KindWake.String())
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := UnmarshalWake(enc[:cut]); err == nil {
			t.Fatalf("truncated wake at %d decoded", cut)
		}
	}
	if _, err := UnmarshalWake(append(enc, 0)); err == nil {
		t.Fatal("wake with a trailing byte decoded")
	}
	if _, err := UnmarshalWake((&Token{Sender: 1}).Marshal()); err == nil {
		t.Fatal("wake decoder accepted a token")
	}
	if _, err := UnmarshalToken(enc); err == nil {
		t.Fatal("token decoder accepted a wake")
	}
}
