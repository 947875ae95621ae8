package ring

import (
	"immune/internal/ids"
	"immune/internal/sec"
)

// verifyKey identifies one (claimed sender, signed bytes, signature)
// triple. The token's full encoding is the signed portion followed by the
// signature, so its digest stands for both and the cache holds fixed-size
// entries instead of retaining token buffers. A forged or mutated token
// necessarily changes the triple, so a cached verdict can never be
// transferred to different bytes: the cache memoizes RSA results, it
// never weakens them.
type verifyKey struct {
	sender ids.ProcessorID
	token  [sec.DigestSize]byte
}

// verifyCacheCap bounds the cache at what produces hits: the event loop
// drains at most 128 frames per batch (smp maxBatch), and a hit is a
// token seen again within a batch or on a resend soon after, so one
// batch plus resends fits. A larger cap only retains dead entries, which
// faster hops fill sooner, raising live heap. Under a flood of distinct
// forgeries the cache clears rather than growing without bound.
const verifyCacheCap = 256

// verifyCache memoizes signature-verification verdicts so each distinct
// token is RSA-verified at most once per processor — retransmitted tokens,
// mutant-token duplicates, and preverified batches all hit the cache.
// Negative verdicts are cached too: a replayed forgery costs one digest,
// not one RSA exponentiation. Single-goroutine use (the ring event
// goroutine), like the rest of the protocol state.
type verifyCache struct {
	m map[verifyKey]bool
}

func newVerifyCache() *verifyCache {
	return &verifyCache{m: make(map[verifyKey]bool)}
}

// lookup returns the cached verdict for k, if any.
func (c *verifyCache) lookup(k verifyKey) (verdict, ok bool) {
	verdict, ok = c.m[k]
	return
}

// store records a verdict, clearing the cache first when it is full. The
// clear-all policy is deliberate: entries are cheap to recompute (one RSA
// verify), and it keeps the hot path free of LRU bookkeeping.
func (c *verifyCache) store(k verifyKey, v bool) {
	if len(c.m) >= verifyCacheCap {
		clear(c.m)
	}
	c.m[k] = v
}
