package runtime

// Event plumbing for the sharded virtual-time engine: the per-shard epoch
// calendar (per-epoch buckets of chunked records, each put in node order
// by a counting sort when its epoch opens), the lock-free SPSC rings that
// carry cross-shard sends, the 8-byte splitmix64 PRNG that replaces
// *rand.Rand on the hot path, and the tap stream the differential test
// pins bit-identical between the sharded and the boxed reference engine.

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// splitmix64
// ---------------------------------------------------------------------------

// prng is an 8-byte splitmix64 generator. A *rand.Rand costs ~5KB of
// state; at 100k nodes with one generator per node and per directed link
// that is half a gigabyte, so the engine carries one word instead.
type prng uint64

func (p *prng) next() uint64 {
	*p += 0x9E3779B97F4A7C15
	z := uint64(*p)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// float64 returns a uniform draw in [0, 1).
func (p *prng) float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// ---------------------------------------------------------------------------
// Event records and the epoch calendar
// ---------------------------------------------------------------------------

// Event kinds. A delivery names its sender in key2's high word; the
// receiver's core matches it against its current neighbors.
const (
	evInit    uint8 = iota // the t=0 announcement every node starts with
	evTimer                // periodic refresh announcement (Algorithm 4)
	evDeliver              // state announcement arriving from a neighbor
	evInject               // scheduled transient fault: overwrite the state
)

// eventRec is one pending event in value form — what crosses shard
// boundaries through the SPSC rings, what the calendar stores and what
// the dispatcher consumes. key2 packs (origin node << 32 | origin
// sequence number): together with at it is the globally unique,
// deterministic event ordering key.
type eventRec[S comparable] struct {
	at      float64
	key2    uint64
	node    int32 // destination node
	kind    uint8
	payload S
}

// recLess is the calendar's dispatch order within one epoch: (node, at,
// key2), unique per event. Each node's records come out in time order and
// the nodes one after another, so the dispatch walks the shard's node and
// link records front to back. The engine's determinism argument makes
// this equivalent to the global time order the Reference twin keeps.
func recLess[S comparable](a, b *eventRec[S]) bool {
	if a.node != b.node {
		return a.node < b.node
	}
	return a.at < b.at || (a.at == b.at && a.key2 < b.key2)
}

func recCmp[S comparable](a, b eventRec[S]) int {
	switch {
	case recLess(&a, &b):
		return -1
	case recLess(&b, &a):
		return 1
	}
	return 0
}

// Calendar geometry.
const (
	// minWindow and maxWindow bound the bucket ring, in epochs. The
	// window is derived from Delay, Jitter and Refresh so that every
	// frame and refresh timer lands inside it; a longer refresh period or
	// a far-ahead ScheduleInject waits in the overflow list instead.
	minWindow = 4
	maxWindow = 64
	// Chunks hold 1<<shift records, sized to the shard's arc within
	// these bounds, so tiny engines stay tiny.
	minChunkShift = 3
	maxChunkShift = 6
	// An opening bucket is split by node into slices of about sliceLen
	// records, each ordered and dispatched before the next is touched;
	// slices up to smallRun records skip the counting pass, and runs up
	// to smallSort records are insertion-sorted.
	sliceLen  = 512
	smallRun  = 32
	smallSort = 16
)

// chain is a list of pool chunks holding records, every chunk full
// except the tail: an epoch's bucket, or one node slice of the open
// epoch.
type chain struct {
	head, tail int32
	n          int32
}

// calendar is a shard's event queue: a ring of per-epoch buckets. The
// engine's epochs are the only points where virtual time is cut, and
// every frame lands at least one epoch after its send, so a record is
// filed straight into the bucket of the epoch that will dispatch it.
//
// When that epoch opens, its bucket is split by node into slices of
// about sliceLen records, each slice a range of the shard's arc. Slices
// are then taken in node order: each is ordered by (node, at, key2) — a
// counting sort on the node's offset in the arc into one bin per record,
// then a sort inside each bin — into a small run buffer and dispatched
// front to back, so the dispatch reads the arc's node and link records in
// address order rather than at random. Records are stored inline in
// fixed-size chunks drawn from a shard-local free pool; a chunk goes back
// to the pool as soon as it has been read, so memory follows the number
// of pending events, not the peak size of any one bucket.
//
// Epoch horizons are the float-accumulated ones stepEpoch produces
// (h_k = h_{k-1} + Delay), not (k+1)·Delay, so filing compares against
// the exact horizons in hz and never files a record one epoch late.
type calendar[S comparable] struct {
	delay, invDelay float64

	// The shard's arc: nodes [arcLo, arcLo+arcLen).
	arcLo  int32
	arcLen int

	cur     int       // the epoch that is open, or opens next
	lo      float64   // the horizon of epoch cur-1: where epoch cur starts
	mask    int       // window-1; the window is a power of two
	hz      []float64 // hz[k&mask]: the horizon of epoch k, k in [cur, cur+window)
	buckets []chain   // buckets[k&mask]: the records epoch k dispatches

	// The chunk pool: chunk c is pool[c<<shift:][:1<<shift]. link chains
	// chunks, and the free list headed by free (-1: dry).
	shift uint
	pool  []eventRec[S]
	link  []int32
	free  int32

	// The open epoch: slices are its node slices, slice s holding the
	// records whose (node-arcLo)·scale falls in [s, s+1); run is the
	// current slice in dispatch order. late holds the records pushed while
	// the epoch is open that still fall before its horizon (a re-armed
	// refresh timer when Refresh < Delay, always for the node being
	// dispatched), kept sorted and merged with the runs as both are
	// consumed.
	opened   bool
	slices   []chain
	nextSl   int
	scale    float64
	run      []eventRec[S]
	next     int
	late     []eventRec[S]
	lateNext int
	cnt      []int32 // counting-sort bins

	// ovf holds the records beyond the window, ovfMin the earliest of
	// their times; they are re-filed as the window advances.
	ovf    []eventRec[S]
	ovfMin float64
}

// init sizes the calendar for the arc of nodes nodes starting at node lo
// and sets it at epoch 0, whose horizon is 0 + delay. A node has about
// three events pending at a time — a refresh timer and a frame on each
// inbound link — so the pool starts with room for three per node plus
// the chains' partly filled tail chunks.
func (q *calendar[S]) init(delay, jitter, refresh float64, lo int32, nodes int) {
	w := minWindow
	for need := math.Ceil(math.Max(delay+jitter, refresh)/delay) + 2; float64(w) < need && w < maxWindow; {
		w <<= 1
	}
	q.delay, q.invDelay = delay, 1/delay
	q.arcLo, q.arcLen = lo, nodes
	q.mask = w - 1
	q.hz = make([]float64, w)
	q.buckets = make([]chain, w)
	h := 0.0
	for k := range q.hz {
		h += delay
		q.hz[k] = h
	}
	q.shift = minChunkShift
	for q.shift < maxChunkShift && 1<<q.shift < nodes/4 {
		q.shift++
	}
	chunks := (3*nodes)>>q.shift + 2*w + 2*nodes/sliceLen + 1
	q.pool = make([]eventRec[S], chunks<<q.shift)
	q.link = make([]int32, chunks)
	for c := range q.link {
		q.link[c] = int32(c) + 1
	}
	q.link[chunks-1] = -1
	q.free = 0
	q.ovfMin = math.Inf(1)
}

// ahead returns the offset a of the epoch cur+a whose span [h_{cur+a-1},
// h_{cur+a}) holds at — 0 for anything before the horizon of epoch cur —
// or -1 when that epoch is beyond the window. The estimate from Delay is
// corrected against the exact horizons; both loops are bounded by the
// window and take at most a step in practice.
//
//allocgate:hot
func (q *calendar[S]) ahead(at float64) int {
	h := q.hz[q.cur&q.mask]
	if at < h {
		return 0
	}
	if at >= q.hz[(q.cur+q.mask)&q.mask] {
		return -1
	}
	a := q.mask
	if d := (at - h) * q.invDelay; d < float64(q.mask-1) {
		a = int(d) + 1
	}
	for at < q.hz[(q.cur+a-1)&q.mask] {
		a--
	}
	for at >= q.hz[(q.cur+a)&q.mask] {
		a++
	}
	return a
}

// push files rec: into the bucket of its epoch, into the open epoch's
// late list, or beyond the window into the overflow list.
//
//shardsafety:worker owns=rec.node
//allocgate:hot
func (sh *engShard[S]) push(rec eventRec[S]) {
	q := &sh.cal
	switch a := q.ahead(rec.at); {
	case a < 0:
		q.ovf = append(q.ovf, rec)
		q.ovfMin = min(q.ovfMin, rec.at)
	case a == 0 && q.opened:
		q.pushLate(&rec)
	default:
		q.file(&q.buckets[(q.cur+a)&q.mask], &rec)
	}
}

// file appends rec to the chain ch.
//
//allocgate:hot
func (q *calendar[S]) file(ch *chain, rec *eventRec[S]) {
	i := int(ch.n) & (1<<q.shift - 1)
	if i == 0 {
		c := q.chunk()
		if ch.n == 0 {
			ch.head = c
		} else {
			q.link[ch.tail] = c
		}
		ch.tail = c
	}
	q.pool[int(ch.tail)<<q.shift+i] = *rec
	ch.n++
}

// chunk takes a chunk from the free pool, growing the pool when it is
// dry. Growth appends (amortized, allocation-free in steady state).
//
//allocgate:hot
func (q *calendar[S]) chunk() int32 {
	if c := q.free; c >= 0 {
		q.free = q.link[c]
		return c
	}
	q.link = append(q.link, -1)
	q.pool = resize(q.pool, len(q.pool)+1<<q.shift)
	return int32(len(q.link) - 1)
}

// release returns chunk c to the free pool.
//
//allocgate:hot
func (q *calendar[S]) release(c int32) {
	q.link[c] = q.free
	q.free = c
}

// resize returns s with length n, growing it by append: amortized, and
// allocation-free once s has reached its working size. Callers write
// every element it exposes before reading it.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	var zero T
	for s = s[:cap(s)]; len(s) < n; {
		s = append(s, zero)
	}
	return s
}

// pushLate inserts rec into the open epoch's late list. Those records are
// re-armed timers of the node being dispatched, produced in (node, at)
// order by the dispatch itself, so the insertion walks back over equal-at
// ties at most.
//
//allocgate:hot
func (q *calendar[S]) pushLate(rec *eventRec[S]) {
	q.late = append(q.late, *rec)
	for i := len(q.late) - 1; i > q.lateNext && recLess(&q.late[i], &q.late[i-1]); i-- {
		q.late[i], q.late[i-1] = q.late[i-1], q.late[i]
	}
}

// open starts the epoch whose horizon is horizon: it splits the epoch's
// bucket into node slices, returning each bucket chunk to the pool once
// read, so the slices reuse the bucket's own chunks. It reports false,
// opening nothing, when horizon is not the horizon the calendar
// accumulated for its next epoch.
//
//allocgate:hot
func (q *calendar[S]) open(horizon float64) bool {
	if horizon != q.hz[q.cur&q.mask] {
		return false
	}
	b := &q.buckets[q.cur&q.mask]
	m := int(b.n)
	ns := 1
	for ns*sliceLen*2 <= m {
		ns <<= 1
	}
	q.slices = resize(q.slices, ns)
	q.scale = float64(ns) / float64(q.arcLen)
	if ns == 1 {
		q.slices[0] = *b
	} else {
		clear(q.slices)
		size := 1 << q.shift
		for c, left := b.head, m; left > 0; {
			chunk := q.pool[int(c)<<q.shift:][:min(left, size)]
			for i := range chunk {
				q.file(&q.slices[binOf(chunk[i].node-q.arcLo, q.scale, 0, ns)], &chunk[i])
			}
			left -= len(chunk)
			next := q.link[c]
			q.release(c)
			c = next
		}
	}
	*b = chain{}
	q.nextSl = 0
	q.run, q.next = q.run[:0], 0
	q.opened = true
	return true
}

// reserve grows the run and the counting bins to the open epoch's
// largest slice, with headroom. It is the calendar's only allocation
// outside the pool, and allocates only when a slice outgrows every
// earlier one: a ring in its steady state never does.
func (q *calendar[S]) reserve() {
	m := 0
	for _, sl := range q.slices {
		m = max(m, int(sl.n))
	}
	if cap(q.run) < m {
		q.run = make([]eventRec[S], 0, m+m/4)
	}
	if cap(q.cnt) <= m {
		q.cnt = make([]int32, 0, m+m/4+1)
	}
}

// load orders the next node slice into the run, which reserve sized,
// and returns its chunks to the pool. The slice's records spread over
// its range of the arc, so a counting sort on the node offset into one
// bin per record puts them in node order up to the records sharing a bin
// — every record of one node, and neighboring nodes when the range holds
// more nodes than records — which a sort inside each bin settles. The
// counting and scattering passes read straight from the chunks.
//
//allocgate:hot
func (q *calendar[S]) load() {
	sl := q.slices[q.nextSl]
	off := float64(q.nextSl)
	q.nextSl++
	m := int(sl.n)
	q.run, q.next = q.run[:m], 0
	if m == 0 {
		return
	}
	run := q.run
	size := 1 << q.shift
	if m <= smallRun {
		for c, done := sl.head, 0; done < m; c = q.link[c] {
			done += copy(run[done:], q.pool[int(c)<<q.shift:][:size])
		}
		sortRecs(run)
	} else {
		// Bin k holds the records whose (node-arcLo)·scale - off lies in
		// [k/m, (k+1)/m): monotone in node, so the bins are in node order.
		lo, scale, boff := q.arcLo, q.scale*float64(m), off*float64(m)
		cnt := q.cnt[:m+1]
		clear(cnt)
		for c, left := sl.head, m; left > 0; c = q.link[c] {
			chunk := q.pool[int(c)<<q.shift:][:min(left, size)]
			for i := range chunk {
				cnt[binOf(chunk[i].node-lo, scale, boff, m)+1]++
			}
			left -= len(chunk)
		}
		for i := 1; i <= m; i++ {
			cnt[i] += cnt[i-1]
		}
		for c, left := sl.head, m; left > 0; c = q.link[c] {
			chunk := q.pool[int(c)<<q.shift:][:min(left, size)]
			for i := range chunk {
				k := binOf(chunk[i].node-lo, scale, boff, m)
				run[cnt[k]] = chunk[i]
				cnt[k]++
			}
			left -= len(chunk)
		}
		// cnt[k] is now the end of bin k.
		start := int32(0)
		for _, end := range cnt[:m] {
			if end-start > 1 {
				sortRecs(run[start:end])
			}
			start = end
		}
	}
	q.link[sl.tail] = q.free
	q.free = sl.head
}

// binOf maps a node offset in the arc to a bin in [0, bins): off·scale -
// boff, truncated and clamped — monotone in off.
func binOf(off int32, scale, boff float64, bins int) int {
	k := int(float64(off)*scale - boff)
	if k < 0 {
		return 0
	}
	if k >= bins {
		return bins - 1
	}
	return k
}

// sortRecs orders a short run by insertion and a long one — only an
// unusually crowded bin — by a comparison sort.
func sortRecs[S comparable](r []eventRec[S]) {
	if len(r) > smallSort {
		slices.SortFunc(r, recCmp[S])
		return
	}
	for i := 1; i < len(r); i++ {
		if !recLess(&r[i], &r[i-1]) {
			continue
		}
		x := r[i]
		j := i
		for ; j > 0 && recLess(&x, &r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = x
	}
}

// pop moves the open epoch's next record, in (node, at, key2) order, into
// rec and reports whether there was one. A late record belongs to the
// node last dispatched, so it goes first when that node is below the
// run's next one, or is the same and earlier in time. Every record a
// shard's calendar holds is destined for a node the shard owns.
//
//shardsafety:source
//allocgate:hot
func (sh *engShard[S]) pop(rec *eventRec[S]) bool {
	q := &sh.cal
	for q.next == len(q.run) && q.nextSl < len(q.slices) {
		q.load()
	}
	if q.lateNext < len(q.late) && (q.next == len(q.run) || recLess(&q.late[q.lateNext], &q.run[q.next])) {
		*rec = q.late[q.lateNext]
		q.lateNext++
		return true
	}
	if q.next < len(q.run) {
		*rec = q.run[q.next]
		q.next++
		return true
	}
	return false
}

// close ends the open epoch and advances the window by one: the freed
// slot becomes the epoch one past the old window end. Overflow records
// are re-filed once the earliest of them is within half a window, so each
// is examined about twice per window it waits.
//
//allocgate:hot
func (q *calendar[S]) close() {
	q.opened = false
	q.slices, q.nextSl = q.slices[:0], 0
	q.run, q.next = q.run[:0], 0
	q.late, q.lateNext = q.late[:0], 0
	slot := q.cur & q.mask
	q.lo = q.hz[slot]
	q.hz[slot] = q.hz[(q.cur+q.mask)&q.mask] + q.delay
	q.cur++
	if len(q.ovf) > 0 && q.ovfMin < q.hz[(q.cur+(q.mask+1)/2)&q.mask] {
		q.sweep()
	}
}

// sweep re-files every overflow record that now falls inside the window.
//
//allocgate:hot
func (q *calendar[S]) sweep() {
	keep := q.ovf[:0]
	q.ovfMin = math.Inf(1)
	for i := range q.ovf {
		rec := q.ovf[i]
		if a := q.ahead(rec.at); a >= 0 {
			q.file(&q.buckets[(q.cur+a)&q.mask], &rec)
			continue
		}
		keep = append(keep, rec)
		q.ovfMin = min(q.ovfMin, rec.at)
	}
	q.ovf = keep
}

// ---------------------------------------------------------------------------
// SPSC rings
// ---------------------------------------------------------------------------

// spscCap bounds one ring's fixed buffer. Each ring serves exactly one
// directed boundary link, and the one-message-per-direction rule spaces
// admitted sends at least Delay (= one epoch) apart, so at most two
// entries are pushed per epoch and each is consumed one epoch later:
// steady-state occupancy never exceeds four. A backlog beyond the fixed
// buffer (a delay ≫ epoch workload, or a future scheduler relaxing the
// two-per-epoch cadence) spills into an unbounded overflow stack instead
// of panicking — correctness never depends on the ring size, only the
// fast path does.
const spscCap = 16

// spscNode boxes one overflowed record on the spill stack.
type spscNode[S comparable] struct {
	rec  eventRec[S]
	next *spscNode[S]
}

// spsc is a single-producer single-consumer ring buffer carrying
// cross-shard event records. The producer shard pushes during its epoch;
// the consumer drains at the start of its own epochs. Entries pushed
// concurrently with a drain are simply picked up one epoch later — their
// arrival times are beyond the next horizon anyway.
type spsc[S comparable] struct {
	buf  [spscCap]eventRec[S]
	_    [64]byte      // keep head and tail on separate cache lines
	head atomic.Uint32 // consumer cursor
	_    [64]byte
	tail atomic.Uint32 // producer cursor

	// ovf is the overflow stack, used only when the fixed buffer is
	// full. The producer CAS-pushes (a plain store would race the
	// consumer's Swap below), the consumer swaps the whole stack out.
	// Stack order is irrelevant: every drained record is filed by the
	// shard's calendar, which orders each epoch by the unique (node, at,
	// key2).
	ovf atomic.Pointer[spscNode[S]]
}

//allocgate:hot
func (q *spsc[S]) pushRing(rec eventRec[S]) {
	t := q.tail.Load()
	if t-q.head.Load() < spscCap {
		q.buf[t%spscCap] = rec
		q.tail.Store(t + 1)
		return
	}
	//lint:ignore hotpath,allocgate the overflow spill boxes the record by design; the fixed ring serves the steady state alloc-free
	n := &spscNode[S]{rec: rec}
	for {
		n.next = q.ovf.Load()
		if q.ovf.CompareAndSwap(n.next, n) {
			return
		}
	}
}

// drainInto moves every visible entry — ring first, then the overflow
// stack — into the shard's calendar. It is the receiving side of the SPSC
// crossing: everything it drains was addressed to sh by the sender's
// gate, so its pushes are exempt from provenance checks.
//
//shardsafety:gate
//allocgate:hot
func (q *spsc[S]) drainInto(sh *engShard[S]) {
	h := q.head.Load()
	for t := q.tail.Load(); h != t; h++ {
		sh.push(q.buf[h%spscCap])
	}
	q.head.Store(h)
	for n := q.ovf.Swap(nil); n != nil; n = n.next {
		sh.push(n.rec)
	}
}

// ---------------------------------------------------------------------------
// Taps
// ---------------------------------------------------------------------------

// TapKind discriminates TapEvent records.
type TapKind uint8

// Tap kinds: every observable action of a node's event processing.
const (
	// TapSend: Src admitted an announcement into the link toward Peer.
	TapSend TapKind = iota
	// TapSuppressed: Src tried to send toward Peer while the link was
	// busy — the one-message-per-direction drop.
	TapSuppressed
	// TapLost: the frame Src sent toward Peer was lost in transit.
	TapLost
	// TapDeliver: Src received (and processed) an announcement from Peer.
	TapDeliver
	// TapRule: Src executed rule Rule.
	TapRule
	// TapTimer: Src's refresh timer fired.
	TapTimer
	// TapInject: a transient fault overwrote Src's state.
	TapInject
)

// TapEvent is one entry of the engine's deterministic execution trace.
// The differential test pins the full tap stream bit-identical between
// the sharded engine (any worker count) and the boxed reference engine.
type TapEvent struct {
	// At is the virtual time of the action.
	At float64
	// Src is the node whose event processing emitted the tap.
	Src int32
	// Ord is Src's monotonic action counter — (At, Src, Ord) totally
	// orders the stream independently of shard interleaving.
	Ord uint32
	// Kind discriminates the record.
	Kind TapKind
	// Peer is the other endpoint for message taps, -1 otherwise.
	Peer int32
	// Rule is the executed rule for TapRule, 0 otherwise.
	Rule int32
}

// sortTaps orders a tap stream by (At, Src, Ord) — each node's taps stay
// in emission order (At is non-decreasing and Ord strictly increasing per
// node), and the interleaving across nodes is canonical.
func sortTaps(taps []TapEvent) {
	sort.Slice(taps, func(i, j int) bool {
		a, b := taps[i], taps[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Ord < b.Ord
	})
}
