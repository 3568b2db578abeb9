package netring

import (
	"net"
	"testing"
	"time"

	"ssrmin/internal/core"
)

func startRing(t *testing.T, n int) *Ring {
	t.Helper()
	r, err := StartLocalRing(n, n+1, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func TestStartLocalRingValidation(t *testing.T) {
	if _, err := StartLocalRing(2, 3, time.Millisecond); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := StartLocalRing(5, 5, time.Millisecond); err == nil {
		t.Error("K=n accepted")
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{ID: 0, N: 5, K: 6}, core.State{}); err == nil {
		t.Error("missing listener accepted")
	}
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	defer l.Close()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"n=2", Config{ID: 0, N: 2, K: 6}},
		{"id=n", Config{ID: 5, N: 5, K: 6}},
		{"negative id", Config{ID: -1, N: 5, K: 6}},
		{"negative refresh", Config{ID: 0, N: 5, K: 6, Refresh: -time.Second}},
		{"negative dial timeout", Config{ID: 0, N: 5, K: 6, DialTimeout: -time.Second}},
		{"negative min interval", Config{ID: 0, N: 5, K: 6, MinInterval: -time.Millisecond}},
	} {
		tc.cfg.Listener = l
		if _, err := NewNode(tc.cfg, core.State{}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := NewNode(Config{ID: 4, N: 5, K: 6, Listener: l}, core.State{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestCirculationOverTCP is the end-to-end deployment test: the privilege
// must visit every node over real sockets.
func TestCirculationOverTCP(t *testing.T) {
	r := startRing(t, 5)
	visited := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(visited) < 5 && time.Now().Before(deadline) {
		for _, h := range r.Holders() {
			visited[h] = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	if len(visited) != 5 {
		t.Fatalf("privilege visited %d/5 nodes over TCP: %v", len(visited), visited)
	}
	if r.RuleExecutions() == 0 {
		t.Fatal("no rules executed")
	}
}

// TestMutualInclusionOverTCP samples the census: with model-gap-tolerant
// predicates it must stay within [1, 2] even over real sockets with real
// latencies.
func TestMutualInclusionOverTCP(t *testing.T) {
	r := startRing(t, 5)
	time.Sleep(50 * time.Millisecond) // let the first announcements land
	min, max := 1<<30, -1
	for i := 0; i < 2000; i++ {
		c := r.Census()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		time.Sleep(200 * time.Microsecond)
	}
	if min < 1 {
		t.Fatalf("census dipped to %d over TCP", min)
	}
	if max > 2 {
		t.Fatalf("census rose to %d over TCP", max)
	}
}

// TestInjectRecoversOverTCP hits a live TCP node with a transient fault
// and verifies the ring returns to the 1–2 regime.
func TestInjectRecoversOverTCP(t *testing.T) {
	r := startRing(t, 5)
	time.Sleep(50 * time.Millisecond)
	r.Nodes[2].Inject(core.State{X: 4, RTS: true, TRA: true})
	r.Nodes[4].Inject(core.State{X: 1, TRA: true})
	time.Sleep(300 * time.Millisecond) // recovery
	min, max := 1<<30, -1
	for i := 0; i < 500; i++ {
		c := r.Census()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		time.Sleep(200 * time.Microsecond)
	}
	if min < 1 || max > 2 {
		t.Fatalf("census [%d,%d] after fault injection", min, max)
	}
}

// TestNodeRestartHeals stops one node entirely and starts a replacement on
// the same address with a garbage state: the ring must resume circulating.
func TestNodeRestartHeals(t *testing.T) {
	r := startRing(t, 5)
	time.Sleep(50 * time.Millisecond)

	// Kill node 3 and remember its address.
	old := r.Nodes[3]
	addr := old.Addr()
	old.Stop()
	time.Sleep(50 * time.Millisecond)

	// Restart on the same address with garbage state.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	repl, err := NewNode(Config{
		ID: 3, N: 5, K: 6,
		Listener: l,
		PredAddr: r.Nodes[2].Addr(),
		SuccAddr: r.Nodes[4].Addr(),
		Refresh:  10 * time.Millisecond,
	}, core.State{X: 3, RTS: true})
	if err != nil {
		t.Fatal(err)
	}
	repl.Start()
	r.Nodes[3] = repl

	// Circulation must resume and reach every node again.
	time.Sleep(300 * time.Millisecond)
	visited := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(visited) < 5 && time.Now().Before(deadline) {
		for _, h := range r.Holders() {
			visited[h] = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	if len(visited) != 5 {
		t.Fatalf("circulation did not resume after node restart: %v", visited)
	}
}

func TestStopIdempotent(t *testing.T) {
	r := startRing(t, 3)
	r.Stop()
	r.Stop()
}
