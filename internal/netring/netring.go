// Package netring deploys SSRmin over real TCP sockets: each node is an
// independent network service that listens for its neighbors' state
// announcements and pushes its own — the cached sensornet transform
// (Algorithm 4) with newline-delimited JSON over TCP in place of sensor
// broadcasts. It is the closest thing in this repository to the paper's
// wireless-sensor-node deployment: nodes share nothing but the wire, and
// every guarantee has to come from the algorithm.
//
//   - Announcements are pushed on change and re-pushed periodically, so
//     dropped connections and lost updates heal (self-stabilization needs
//     the periodic refresh, exactly as in Section 5).
//   - Outgoing connections reconnect with backoff; a down neighbor stalls
//     circulation but the local token predicates keep working off the
//     last cached state.
//   - Token predicates are evaluated on the node's own state and caches,
//     as everywhere else in this repository.
//
// The nodes of one ring can live in one process (see StartLocalRing, used
// by the tests), several processes, or several machines.
package netring

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/statemodel"
)

// Announcement is the wire message: one node's current state.
type Announcement struct {
	// From is the sender's ring index.
	From int `json:"from"`
	// X, RTS, TRA mirror core.State.
	X   int  `json:"x"`
	RTS bool `json:"rts"`
	TRA bool `json:"tra"`
}

// Config wires one node into the ring.
type Config struct {
	// ID is the node's ring index; N the ring size; K the counter space.
	ID, N, K int
	// Listener accepts neighbor connections. The caller owns address
	// selection (use net.Listen("tcp", "127.0.0.1:0") for tests).
	Listener net.Listener
	// PredAddr and SuccAddr are the neighbors' listen addresses.
	PredAddr, SuccAddr string
	// Refresh is the periodic announcement interval (default 50ms).
	Refresh time.Duration
	// DialTimeout bounds dialing and writes (default 250ms); failed
	// neighbors are retried on the refresh tick.
	DialTimeout time.Duration
	// MinInterval paces announcements (default 1ms): at most one
	// announcement per interval leaves the node, the way a real sensor
	// paces its radio. Changes made in between coalesce into the next
	// announcement (only the latest state matters).
	MinInterval time.Duration
}

// Node is one SSRmin process served over TCP.
type Node struct {
	cfg Config
	alg *core.Algorithm

	// mu guards the CST core (state, caches, neighbors) and execs: the
	// per-connection readers deliver into it while the announcer reads
	// the state.
	mu    sync.Mutex
	core  cst.Core[core.State]
	execs int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// dirty wakes the announcer; all writes flow through the single
	// announcer goroutine so that announcements leave in state order (a
	// stale state must never overwrite a newer one in a neighbor's cache).
	dirty chan struct{}

	outPred net.Conn
	outSucc net.Conn
}

// NewNode creates a node with the given initial state. Caches start as the
// node's own state (incoherent until the first announcements arrive —
// self-stabilization covers the difference).
func NewNode(cfg Config, init core.State) (*Node, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("netring: node %d needs a listener", cfg.ID)
	}
	if cfg.N < 3 || cfg.K <= cfg.N {
		return nil, fmt.Errorf("netring: bad ring parameters n=%d K=%d", cfg.N, cfg.K)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N {
		return nil, fmt.Errorf("netring: node id %d outside [0, %d)", cfg.ID, cfg.N)
	}
	if cfg.Refresh < 0 || cfg.DialTimeout < 0 || cfg.MinInterval < 0 {
		return nil, fmt.Errorf("netring: node %d: negative Refresh %v, DialTimeout %v or MinInterval %v",
			cfg.ID, cfg.Refresh, cfg.DialTimeout, cfg.MinInterval)
	}
	if cfg.Refresh == 0 {
		cfg.Refresh = 50 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 250 * time.Millisecond
	}
	if cfg.MinInterval == 0 {
		cfg.MinInterval = time.Millisecond
	}
	n := &Node{
		cfg:   cfg,
		alg:   core.New(cfg.N, cfg.K),
		core:  cst.NewCore(cfg.ID, cfg.N, init),
		dirty: make(chan struct{}, 1),
	}
	return n, nil
}

// Start launches the accept loop and the announcer.
func (n *Node) Start() {
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.wg.Add(2)
	go n.acceptLoop()
	go n.announceLoop()
}

// Stop closes the listener and all connections and waits for goroutines.
func (n *Node) Stop() {
	if n.cancel == nil {
		return
	}
	n.cancel()
	n.cfg.Listener.Close()
	n.wg.Wait()
	if n.outPred != nil {
		n.outPred.Close()
	}
	if n.outSucc != nil {
		n.outSucc.Close()
	}
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.cfg.Listener.Addr().String() }

// Snapshot returns the node's state and caches.
func (n *Node) Snapshot() (self, cachePred, cacheSucc core.State) {
	v := n.View()
	return v.Self, v.Pred, v.Succ
}

// View builds the node's current view.
func (n *Node) View() statemodel.View[core.State] {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.View(n.cfg.ID, n.cfg.N)
}

// Privileged reports whether the node currently holds a token.
func (n *Node) Privileged() bool { return core.HasToken(n.View()) }

// RuleExecutions returns how many rules the node has executed.
func (n *Node) RuleExecutions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.execs
}

// Inject overwrites the local state — a live transient fault.
func (n *Node) Inject(s core.State) {
	n.mu.Lock()
	n.core.SetState(s)
	n.mu.Unlock()
	n.signal()
}

// signal wakes the announcer (coalescing: one pending wake suffices,
// because the announcer always reads the latest state).
func (n *Node) signal() {
	select {
	case n.dirty <- struct{}{}:
	default:
	}
}

// acceptLoop accepts neighbor connections and spawns a reader per
// connection.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.cfg.Listener.Accept()
		if err != nil {
			return // listener closed by Stop
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop consumes announcements from one incoming connection.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	go func() { // close the connection when the node stops
		<-n.ctx.Done()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		var a Announcement
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			continue // corrupt frame: drop; refresh will resend
		}
		n.receive(a)
	}
}

// receive applies Algorithm 4's message action through the shared CST
// core. Out-of-domain payloads and frames from non-neighbors are dropped.
func (n *Node) receive(a Announcement) {
	s := core.State{X: a.X, RTS: a.RTS, TRA: a.TRA}
	if s.X < 0 || s.X >= n.cfg.K {
		return
	}
	n.mu.Lock()
	ok := n.core.Deliver(a.From, s)
	if ok && n.core.Fire(n.alg, n.cfg.ID, n.cfg.N) != 0 {
		n.execs++
	}
	n.mu.Unlock()
	if ok {
		n.signal()
	}
}

// announceLoop is the single writer: it pushes the latest state to both
// neighbors whenever signalled and on every refresh tick. Serializing all
// writes through one goroutine guarantees announcements leave in state
// order over each (FIFO) TCP connection.
func (n *Node) announceLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Refresh)
	defer t.Stop()
	n.announceNow()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-n.dirty:
			n.announceNow()
			// Pace the radio: coalesce further changes for MinInterval.
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(n.cfg.MinInterval):
			}
		case <-t.C:
			n.announceNow()
		}
	}
}

// announceNow pushes the current state to both neighbors, (re)dialing as
// needed. A neighbor that cannot be reached right now is skipped; the
// ticker retries. Only the announcer goroutine calls it.
func (n *Node) announceNow() {
	n.mu.Lock()
	s := n.core.State()
	n.mu.Unlock()
	a := Announcement{From: n.cfg.ID, X: s.X, RTS: s.RTS, TRA: s.TRA}
	payload, err := json.Marshal(a)
	if err != nil {
		return
	}
	payload = append(payload, '\n')
	n.outPred = n.push(n.outPred, n.cfg.PredAddr, payload)
	n.outSucc = n.push(n.outSucc, n.cfg.SuccAddr, payload)
}

// push writes payload over conn, re-dialing addr when conn is nil or the
// write fails. It returns the (possibly new, possibly nil) connection.
func (n *Node) push(conn net.Conn, addr string, payload []byte) net.Conn {
	if n.ctx.Err() != nil {
		return conn
	}
	if conn == nil {
		c, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
		if err != nil {
			return nil
		}
		conn = c
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
	if _, err := conn.Write(payload); err != nil {
		conn.Close()
		return nil
	}
	return conn
}

// Ring is a convenience handle over a set of in-process nodes.
type Ring struct {
	// Nodes holds the ring members by index.
	Nodes []*Node
}

// StartLocalRing builds and starts an n-node ring on loopback TCP with
// ephemeral ports, starting from the canonical legitimate configuration.
func StartLocalRing(n, k int, refresh time.Duration) (*Ring, error) {
	if n < 3 || k <= n {
		return nil, fmt.Errorf("netring: bad parameters n=%d K=%d", n, k)
	}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l2 := range listeners[:i] {
				l2.Close()
			}
			return nil, err
		}
		listeners[i] = l
	}
	alg := core.New(n, k)
	init := alg.InitialLegitimate()
	r := &Ring{Nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		node, err := NewNode(Config{
			ID: i, N: n, K: k,
			Listener: listeners[i],
			PredAddr: listeners[(i-1+n)%n].Addr().String(),
			SuccAddr: listeners[(i+1)%n].Addr().String(),
			Refresh:  refresh,
		}, init[i])
		if err != nil {
			return nil, err
		}
		r.Nodes[i] = node
	}
	for _, node := range r.Nodes {
		node.Start()
	}
	return r, nil
}

// Stop terminates every node.
func (r *Ring) Stop() {
	for _, n := range r.Nodes {
		n.Stop()
	}
}

// Census counts privileged nodes as seen through their own caches.
func (r *Ring) Census() int {
	count := 0
	for _, n := range r.Nodes {
		if n.Privileged() {
			count++
		}
	}
	return count
}

// Holders returns the privileged node indices.
func (r *Ring) Holders() []int {
	var out []int
	for i, n := range r.Nodes {
		if n.Privileged() {
			out = append(out, i)
		}
	}
	return out
}

// RuleExecutions sums rule executions across the ring.
func (r *Ring) RuleExecutions() int {
	total := 0
	for _, n := range r.Nodes {
		total += n.RuleExecutions()
	}
	return total
}
