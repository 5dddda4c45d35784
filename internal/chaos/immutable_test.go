package chaos

import (
	"fmt"
	"testing"

	"cobcast/internal/pdu"
)

// TestPDUsStayUnwritten pins the rule that makes sharing PDUs safe: no
// engine writes a PDU it receives. The simulated network hands every
// receiver and every duplicate the sender's own PDU (wire version 0) or
// a freshly decoded one (wire version 2); either way each PDU is
// fingerprinted at its first arrival anywhere and fingerprinted again
// after the run, over the sweep's seeds 1–64. (A decoded unsequenced PDU
// is the frame decoder's scratch, overwritten by the next decode and
// never retained, so the byte path — wire version 2, and every run of
// several groups — fingerprints the sequenced ones.)
func TestPDUsStayUnwritten(t *testing.T) {
	shared := 0 // arrivals of a PDU another arrival already brought
	for seed := int64(1); seed <= 64; seed++ {
		for _, wire := range []int{0, 2} {
			cfg := FromSeed(seed)
			cfg.WireVersion = wire
			bytePath := wire == 2 || cfg.Groups > 1
			first := make(map[*pdu.PDU]string)
			arrivals := 0
			_, err := run(cfg, nil, func(_, _ pdu.EntityID, p *pdu.PDU) {
				if bytePath && !p.Kind.Sequenced() {
					return
				}
				arrivals++
				if _, seen := first[p]; !seen {
					first[p] = fmt.Sprintf("%#v", *p)
				}
			})
			if err != nil {
				t.Fatalf("seed %d wire %d: %v", seed, wire, err)
			}
			shared += arrivals - len(first)
			for p, was := range first {
				if now := fmt.Sprintf("%#v", *p); now != was {
					t.Fatalf("seed %d wire %d: a received PDU changed:\n was %s\n now %s", seed, wire, was, now)
				}
			}
		}
	}
	if shared == 0 {
		t.Error("no PDU reached more than one receiver: the sweep shared nothing")
	}
}
