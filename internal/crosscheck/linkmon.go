// Link-model conformance monitoring: Section 5's rule that "each
// communication link can transmit only one message in each direction at a
// time", checked from outside the network implementation via the tap.
package crosscheck

import (
	"fmt"

	"ssrmin/internal/msgnet"
)

// maxViolations bounds the violations any single monitor or checker
// records; a broken run produces one violation per event, and the first
// few dozen carry all the signal.
const maxViolations = 64

// LinkMonitor watches a Network's tap stream and confirms that every
// directed link carries at most one frame at a time: a send may be
// admitted only when every previously admitted frame — duplicates
// included — has already arrived. Admissions that tie exactly with the
// last arrival's instant are legal (the medium frees at the arrival
// instant), which matters because the tap reports a delivery only when
// its event is processed, possibly after a same-instant send.
//
// The monitor deliberately recomputes link occupancy from first
// principles (send/dup/deliver events) instead of trusting the network's
// busyUntil bookkeeping — it exists to catch exactly the class of bug
// where that bookkeeping and the paper's model disagree, as the
// duplicated-delivery bug did.
type LinkMonitor struct {
	// links[from] holds the occupancy of every directed link out of
	// from that has carried a frame — a ring node has two, a few more
	// once churn rewires it — so a lookup is a short linear scan.
	links      [][]linkOccupancy
	violations []Violation
	truncated  int
}

type linkOccupancy struct {
	// to is the link's receiving end.
	to int
	// outstanding counts admitted frames (sends + scheduled duplicates)
	// not yet delivered.
	outstanding int
	// pending records admissions that happened while frames were still
	// outstanding; each is confirmed as a violation by the first
	// outstanding delivery strictly after its instant, or cleared by
	// deliveries at exactly its instant.
	pending []pendingAdmission
}

type pendingAdmission struct {
	at        msgnet.Time
	remaining int // outstanding frames that must land at exactly `at`
}

// NewLinkMonitor returns an empty monitor; install its Tap on a Network.
func NewLinkMonitor() *LinkMonitor {
	return &LinkMonitor{}
}

// link returns the occupancy record of the directed link from→to,
// creating an empty one on first use.
func (m *LinkMonitor) link(from, to int) *linkOccupancy {
	for from >= len(m.links) {
		m.links = append(m.links, nil)
	}
	out := m.links[from]
	for i := range out {
		if out[i].to == to {
			return &out[i]
		}
	}
	m.links[from] = append(out, linkOccupancy{to: to})
	return &m.links[from][len(out)]
}

// Tap consumes one network tap event. Install as (or call from) the
// Network's Tap hook.
func (m *LinkMonitor) Tap(e msgnet.TapEvent) {
	switch e.Kind {
	case msgnet.TapSend, msgnet.TapDup, msgnet.TapDeliver:
	default:
		return
	}
	l := m.link(e.From, e.Node)
	switch e.Kind {
	case msgnet.TapSend:
		if l.outstanding > 0 {
			l.pending = append(l.pending, pendingAdmission{at: e.At, remaining: l.outstanding})
		}
		l.outstanding++
	case msgnet.TapDup:
		if l.outstanding == 0 {
			m.report(Violation{
				Engine: EngineMsgnet, Kind: "link", At: float64(e.At),
				Detail: fmt.Sprintf("link %d->%d: duplicate scheduled with no frame in flight", e.From, e.Node),
			})
			return
		}
		l.outstanding++
	case msgnet.TapDeliver:
		if l.outstanding == 0 {
			m.report(Violation{
				Engine: EngineMsgnet, Kind: "link", At: float64(e.At),
				Detail: fmt.Sprintf("link %d->%d: delivery with no admitted frame", e.From, e.Node),
			})
			return
		}
		if len(l.pending) > 0 {
			p := &l.pending[0]
			if e.At > p.at {
				m.report(Violation{
					Engine: EngineMsgnet, Kind: "link", At: float64(p.at),
					Detail: fmt.Sprintf("link %d->%d: send admitted at t=%v while a frame still in transit arrived at t=%v (one-message-per-direction rule)",
						e.From, e.Node, p.at, e.At),
				})
				l.pending = l.pending[1:]
			} else {
				p.remaining--
				if p.remaining == 0 {
					l.pending = l.pending[1:]
				}
			}
		}
		l.outstanding--
	}
}

func (m *LinkMonitor) report(v Violation) {
	if len(m.violations) >= maxViolations {
		m.truncated++
		return
	}
	m.violations = append(m.violations, v)
}

// Finish returns the confirmed violations. Admissions still awaiting a
// confirming delivery when the run ends are dropped: the horizon cut the
// evidence short, so they are not reported.
func (m *LinkMonitor) Finish() []Violation {
	out := append([]Violation(nil), m.violations...)
	if m.truncated > 0 {
		out = append(out, Violation{
			Engine: EngineMsgnet, Kind: "link", At: -1,
			Detail: fmt.Sprintf("%d further link violations truncated", m.truncated),
		})
	}
	return out
}
