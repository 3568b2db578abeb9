package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Step(1, 2)
	o.RuleFired(1, 0, 1)
	o.TokenMoved(1, 0, 1)
	o.Handover(1, 0, true)
	o.MsgSent(1, 0, 1)
	o.MsgRecv(1, 0, 1)
	o.MsgDropped(1, 0, 1)
	o.ConvergedAt(1, 5)
	if o.Vars() != nil {
		t.Fatal("nil observer should have nil vars")
	}
	var b strings.Builder
	o.WriteText(&b)
	if !strings.Contains(b.String(), "no observer") {
		t.Fatalf("unexpected nil exposition: %q", b.String())
	}
}

func TestCounters(t *testing.T) {
	o := New(nil)
	for i := 0; i < 3; i++ {
		o.Step(float64(i), 2)
		o.RuleFired(float64(i), i, 1)
		o.RuleFired(float64(i), i, 4)
	}
	o.TokenMoved(3, 0, 1)
	o.Handover(3, 1, true)
	o.Handover(4, 0, false)
	o.MsgSent(5, 0, 1)
	o.MsgRecv(5, 1, 0)
	o.MsgDropped(5, 1, 0)
	o.ConvergedAt(6, 43)

	if got := o.C.Steps.Load(); got != 3 {
		t.Errorf("steps = %d, want 3", got)
	}
	if got := o.C.RuleFired.Load(); got != 6 {
		t.Errorf("rule fired = %d, want 6", got)
	}
	if got := o.C.Rules[1].Load(); got != 3 {
		t.Errorf("rule 1 = %d, want 3", got)
	}
	if got := o.C.Rules[4].Load(); got != 3 {
		t.Errorf("rule 4 = %d, want 3", got)
	}
	if got := o.C.Handovers.Load(); got != 1 {
		t.Errorf("handovers = %d, want 1 (only gains count)", got)
	}
	if got := o.ConvergeSteps.Mean(); got != 43 {
		t.Errorf("converge mean = %v, want 43", got)
	}
	if got := o.StepMoves.Count(); got != 3 {
		t.Errorf("step moves count = %d, want 3", got)
	}
}

func TestHandoverGap(t *testing.T) {
	o := New(nil)
	o.Handover(1.0, 0, true) // first gain: no gap yet
	if got := o.HandoverGap.Count(); got != 0 {
		t.Fatalf("gap count after first gain = %d, want 0", got)
	}
	o.Handover(1.5, 1, true) // 0.5s gap = 500000µs
	if got := o.HandoverGap.Count(); got != 1 {
		t.Fatalf("gap count = %d, want 1", got)
	}
	if got := o.HandoverGap.Sum(); got != 500000 {
		t.Fatalf("gap sum = %dµs, want 500000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 8, 1 << 50} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.Snapshot()
	if snap[0] != 1 { // v ≤ 0
		t.Errorf("bucket 0 = %d, want 1", snap[0])
	}
	if snap[1] != 1 { // v = 1
		t.Errorf("bucket 1 = %d, want 1", snap[1])
	}
	if snap[2] != 2 { // v ∈ {2, 3}
		t.Errorf("bucket 2 = %d, want 2", snap[2])
	}
	if snap[4] != 1 { // v = 8
		t.Errorf("bucket 4 = %d, want 1", snap[4])
	}
	if snap[Buckets-1] != 1 { // catch-all
		t.Errorf("last bucket = %d, want 1", snap[Buckets-1])
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("median bound = %d, want 3", q)
	}
	if q := h.Quantile(1); q != BucketBound(Buckets-1) {
		t.Errorf("max bound = %d", q)
	}
}

func TestJSONLSink(t *testing.T) {
	var b strings.Builder
	sink := NewJSONL(&b)
	o := New(sink)
	o.RuleFired(0.25, 3, 2)
	o.TokenMoved(0.5, 3, 4)
	o.Handover(0.5, 4, true)
	o.MsgDropped(0.75, 1, 0)
	o.ConvergedAt(1, 16)
	want := `{"t":0.25,"ev":"rule","node":3,"rule":2}
{"t":0.5,"ev":"token","node":4,"peer":3}
{"t":0.5,"ev":"handover","node":4,"gained":true}
{"t":0.75,"ev":"drop","node":1,"peer":0}
{"t":1,"ev":"converged","steps":16}
`
	if b.String() != want {
		t.Errorf("JSONL mismatch.\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	if sink.Events() != 5 {
		t.Errorf("events = %d, want 5", sink.Events())
	}
	if sink.Err() != nil {
		t.Errorf("err = %v", sink.Err())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLSinkError(t *testing.T) {
	sink := NewJSONL(failWriter{})
	sink.Emit(Event{Kind: KindRuleFired, Node: 0, Peer: -1, Rule: 1})
	sink.Emit(Event{Kind: KindRuleFired, Node: 0, Peer: -1, Rule: 1})
	if sink.Err() == nil {
		t.Fatal("expected write error")
	}
}

func TestFilterSink(t *testing.T) {
	var got []Event
	s := Filter(Func(func(e Event) { got = append(got, e) }), KindHandover, KindTokenMoved)
	o := New(s)
	o.RuleFired(1, 0, 1)
	o.Handover(2, 1, true)
	o.TokenMoved(3, 1, 2)
	o.MsgSent(4, 0, 1)
	if len(got) != 2 || got[0].Kind != KindHandover || got[1].Kind != KindTokenMoved {
		t.Fatalf("filter passed %v", got)
	}
}

func TestNopSinkSkipsEventConstruction(t *testing.T) {
	o := New(Nop{})
	if o.emit {
		t.Fatal("Nop sink must disable event emission")
	}
	o = New(NewJSONL(io.Discard))
	if !o.emit {
		t.Fatal("real sink must enable event emission")
	}
}

func TestWriteTextAndVars(t *testing.T) {
	o := New(nil)
	o.Step(0, 1)
	o.RuleFired(0, 0, 2)
	o.Handover(0, 0, true)
	o.Handover(1, 1, true)
	var b strings.Builder
	o.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"ssrmin_steps 1\n",
		"ssrmin_rule_fired 1\n",
		"ssrmin_rule_fired{rule=2} 1\n",
		"ssrmin_handovers 2\n",
		"ssrmin_handover_gap_us_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	vars := o.Vars()
	if vars["handovers"] != 2 || vars["rule_2"] != 1 {
		t.Errorf("vars = %v", vars)
	}
	if names := o.SortedVarNames(); len(names) != len(vars) {
		t.Errorf("names = %v", names)
	}
}

func TestServeMetrics(t *testing.T) {
	o := New(nil)
	o.Step(0, 1)
	addr, shutdown, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "ssrmin_steps 1") {
		t.Errorf("metrics body:\n%s", body)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestFirstGainSentinel(t *testing.T) {
	o := New(nil)
	if !math.IsNaN(math.Float64frombits(o.lastGain.Load())) {
		t.Fatal("lastGain sentinel must start as NaN")
	}
}

// TestTallyFlushMatchesDirect pins a flushed Tally to the same counters,
// histogram and event stream as the direct per-action Observer methods.
func TestTallyFlushMatchesDirect(t *testing.T) {
	var directEvents, tallyEvents []Event
	direct := New(Func(func(e Event) { directEvents = append(directEvents, e) }))
	tallied := New(Func(func(e Event) { tallyEvents = append(tallyEvents, e) }))
	var tl Tally
	for i := 0; i < 40; i++ {
		at := float64(i)
		moves := i%5 + i/20*9
		direct.Step(at, moves)
		tl.Step(moves)
		direct.RuleFired(at, i%7, i%MaxRules)
		tl.RuleFired(tallied, at, i%7, i%MaxRules)
		direct.MsgSent(at, 0, 1)
		tl.MsgSent(tallied, at, 0, 1)
		if i%3 == 0 {
			direct.MsgRecv(at, 1, 0)
			tl.MsgRecv(tallied, at, 1, 0)
		} else {
			direct.MsgDropped(at, 1, 0)
			tl.MsgDropped(tallied, at, 1, 0)
		}
		if i%16 == 15 {
			tallied.Flush(&tl)
		}
	}
	if tallied.C.Steps.Load() != 32 {
		t.Errorf("counters published before Flush: steps = %d, want 32", tallied.C.Steps.Load())
	}
	tallied.Flush(&tl)
	tallied.Flush(&tl)
	if got, want := tallied.Vars(), direct.Vars(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flushed vars %v, direct %v", got, want)
	}
	if tallied.StepMoves.Snapshot() != direct.StepMoves.Snapshot() || tallied.StepMoves.Sum() != direct.StepMoves.Sum() {
		t.Errorf("step-moves histogram %v (sum %d), direct %v (sum %d)",
			tallied.StepMoves.Snapshot(), tallied.StepMoves.Sum(), direct.StepMoves.Snapshot(), direct.StepMoves.Sum())
	}
	if fmt.Sprint(tallyEvents) != fmt.Sprint(directEvents) {
		t.Errorf("tallied events differ from direct ones:\n%v\n%v", tallyEvents, directEvents)
	}
	var nilObs *Observer
	nilObs.Flush(&tl)
}
