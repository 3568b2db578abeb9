package cst

import (
	"testing"

	"ssrmin/internal/core"
)

// FuzzCoreQuiet holds Core's quiet memo to a memo-free oracle: random
// sequences of deliveries (from either neighbor or a stranger, repeating
// or changing the slot's contents), state and cache overwrites, detach
// and rewiring, and fires, on an SSRmin node of a small ring. Before
// every Fire the oracle evaluates EnabledRule and Apply afresh on the
// view; the rule Fire returns and the state it leaves must match.
func FuzzCoreQuiet(f *testing.F) {
	f.Add(uint8(0), []byte{9, 0, 9, 0, 0, 0, 9, 0, 2, 0, 9, 0})
	f.Add(uint8(13), []byte{5, 7, 9, 0, 9, 0, 1, 3, 9, 0, 4, 2, 9, 0, 3, 8, 9, 0})
	f.Add(uint8(42), []byte{6, 17, 9, 0, 9, 0, 7, 1, 9, 0, 8, 2, 9, 0, 0, 0, 9, 0})
	f.Add(uint8(200), []byte{7, 5, 8, 5, 9, 0, 1, 64, 9, 0, 3, 33, 9, 0, 9, 0})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		n := 3 + int(shape)%4
		alg := core.New(n, n+1+int(shape>>2)%3)
		i := int(shape>>4) % n
		decode := func(b byte) core.State {
			return core.State{X: int(b>>2) % alg.K(), RTS: b&1 != 0, TRA: b&2 != 0}
		}
		c := NewCore(i, n, decode(shape))
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			pred, succ := c.Neighbors()
			before := c.View(i, n)
			switch op % 10 {
			case 0: // the predecessor repeats what the cache holds
				c.Deliver(pred, before.Pred)
			case 1:
				c.Deliver(pred, decode(arg))
			case 2: // the successor repeats what the cache holds
				c.Deliver(succ, before.Succ)
			case 3:
				c.Deliver(succ, decode(arg))
			case 4: // a stranger: an ex-neighbor, a non-member or a spare
				from := int(arg>>2) % (n + 2)
				if from == pred || from == succ {
					from = n + 2
				}
				if c.Deliver(from, decode(arg)) {
					t.Fatalf("frame from stranger %d accepted (pred %d, succ %d)", from, pred, succ)
				}
				if c.View(i, n) != before {
					t.Fatalf("frame from stranger %d changed the view", from)
				}
			case 5:
				c.SetState(decode(arg))
			case 6:
				c.SetCaches(decode(arg), decode(arg*7+1))
			case 7: // rewire one side; a two-node wiring is reachable
				if arg&1 == 0 {
					c.SetPred(int(arg>>1) % n)
				} else {
					c.SetSucc(int(arg>>1) % n)
				}
			case 8:
				c.Detach()
				if arg&1 != 0 {
					c.SetPred((i - 1 + n) % n)
					c.SetSucc((i + 1) % n)
				}
			case 9:
				want := alg.EnabledRule(before)
				wantState := before.Self
				if want != 0 {
					wantState = alg.Apply(before, want)
				}
				quiet := c.Quiet()
				if got := c.Fire(alg, i, n); got != want {
					t.Fatalf("Fire on %+v returned rule %d, oracle %d (quiet before: %v)", before, got, want, quiet)
				}
				if c.State() != wantState {
					t.Fatalf("Fire of rule %d on %+v left %+v, oracle %+v", want, before, c.State(), wantState)
				}
				if c.Quiet() != (want == 0) {
					t.Fatalf("after Fire returned %d, Quiet() = %v", want, c.Quiet())
				}
			}
		}
	})
}
