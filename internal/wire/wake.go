package wire

import (
	"fmt"

	"immune/internal/ids"
)

// KindWake tags a Wake hint. Declared here (not in the Kind const block)
// to keep the numeric values of the original kinds stable.
const KindWake Kind = 5

// Wake is the idle-token wake hint. Every member observes every token, so
// a member with queued submissions can tell when the token's addressee
// will hold it idle (no rtr and no sequence progress since that member's
// own previous token); it then multicasts one Wake per idle period. The
// holder passes a parked token at once and every other member skips its
// next idle hold, bringing the token to the waiting submitter at network
// speed. A wake is only a hint: it carries no ordering state, is not
// signed, and a lost one leaves the paced rotation unchanged. The sender
// is the transport frame's origin; receivers honour only members of the
// named ring.
type Wake struct {
	Ring ids.RingID
}

// wakeSize is the exact length of a Wake encoding.
const wakeSize = 1 + 4

// Marshal encodes the hint with its kind tag.
func (w *Wake) Marshal() []byte {
	wr := newWriter(wakeSize)
	wr.byte1(byte(KindWake))
	wr.u32(uint32(w.Ring))
	return wr.buf
}

// UnmarshalWake decodes a wake payload.
func UnmarshalWake(payload []byte) (*Wake, error) {
	r := reader{buf: payload}
	if k := r.byte1(); Kind(k) != KindWake {
		return nil, fmt.Errorf("wire: kind %d is not a wake hint", k)
	}
	w := &Wake{Ring: ids.RingID(r.u32())}
	if err := r.done(); err != nil {
		return nil, err
	}
	return w, nil
}
