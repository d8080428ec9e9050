package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func healthzOK() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	return mux
}

// TestReprobeRevivesMarkedDownNode: a mark-down is a quarantine, not a
// verdict — the background re-probe must revive a healthy node without
// anyone calling Health().
func TestReprobeRevivesMarkedDownNode(t *testing.T) {
	peer := httptest.NewServer(healthzOK())
	defer peer.Close()

	rt, err := New(Config{
		Self:        "a",
		Nodes:       map[string]string{"a": "http://unused", "b": peer.URL},
		ReprobeBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rt.MarkDown("b")
	if !rt.Down("b") {
		t.Fatal("MarkDown did not take")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Down("b") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.Down("b") {
		t.Fatal("re-probe never revived a healthy node")
	}
	if st := rt.Stats(); st.Revivals != 1 {
		t.Errorf("revivals = %d, want 1", st.Revivals)
	}
}

// TestReprobeStopsWhenNodeLeavesMembership: the re-probe loop must not
// spin forever on a node that departed the view.
func TestReprobeStopsWhenNodeLeavesMembership(t *testing.T) {
	rt, err := New(Config{
		Self:        "a",
		Nodes:       map[string]string{"a": "http://unused", "b": "http://127.0.0.1:1"},
		ReprobeBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rt.MarkDown("b")
	rt.SetMembership(7, map[string]string{"a": "http://unused"})
	// The swap pruned the down set; the loop notices within a few probes.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		rt.mu.Lock()
		live := rt.reprobing["b"]
		rt.mu.Unlock()
		if !live {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("re-probe loop survived its node's departure")
}

// TestPeerFetchMarkDownSemantics pins the mark-down rules for the peer
// cache tier: only a connection-level failure may quarantine a node.
// HTTP-level errors and slow responses prove something is listening.
func TestPeerFetchMarkDownSemantics(t *testing.T) {
	ctx := context.Background()
	key := testKeys(1)[0]

	build := func(peerURL string, timeout time.Duration) *Router {
		rt, err := New(Config{
			Self:  "a",
			Nodes: map[string]string{"a": "http://unused", "b": peerURL},
			// Long reprobe so a mark-down stays observable.
			ReprobeBase: time.Hour, ReprobeMax: time.Hour,
			HTTPClient: &http.Client{Timeout: timeout},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}

	t.Run("http 500 keeps node placed", func(t *testing.T) {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "internal", http.StatusInternalServerError)
		}))
		defer peer.Close()
		rt := build(peer.URL, time.Second)
		if _, ok := rt.Fetch(ctx, key); ok {
			t.Fatal("fetch against a 500 should miss")
		}
		if rt.Down("b") {
			t.Error("HTTP 500 marked the node down; an answering node is alive")
		}
	})

	t.Run("timeout keeps node placed", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		defer peer.Close()
		rt := build(peer.URL, 30*time.Millisecond)
		if _, ok := rt.Fetch(ctx, key); ok {
			t.Fatal("fetch against a stalled peer should miss")
		}
		if rt.Down("b") {
			t.Error("a slow peer was marked down; slow is not dead")
		}
	})

	t.Run("connection refused marks node down", func(t *testing.T) {
		peer := httptest.NewServer(healthzOK())
		peer.Close() // port now refuses
		rt := build(peer.URL, time.Second)
		if _, ok := rt.Fetch(ctx, key); ok {
			t.Fatal("fetch against a closed port cannot hit")
		}
		if !rt.Down("b") {
			t.Error("connection refused did not mark the node down")
		}
	})
}

// TestPeerMissesReuseConnection: repeated peer-cache misses answered
// with a 404 body must travel over one keep-alive connection, not dial
// a new one per probe (each abandoned connection lingers in TIME_WAIT).
func TestPeerMissesReuseConnection(t *testing.T) {
	var dials atomic.Int64
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"labd: no cached result for this key"}`, http.StatusNotFound)
	}))
	peer.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	peer.Start()
	defer peer.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	rt, err := New(Config{
		Self:        "a",
		Nodes:       map[string]string{"a": "http://unused", "b": peer.URL},
		ReprobeBase: time.Hour, ReprobeMax: time.Hour,
		HTTPClient: &http.Client{Transport: transport, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const probes = 50
	for _, key := range testKeys(probes) {
		if _, ok := rt.Fetch(context.Background(), key); ok {
			t.Fatal("a 404 peer answer cannot hit")
		}
	}
	if got := rt.Stats().PeerProbes; got != probes {
		t.Fatalf("peer probes = %d, want %d", got, probes)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d probes answered 404 opened %d connections, want 1", probes, got)
	}
}

// TestConcurrentPlacementDuringMembershipChange hammers the placement
// read paths while membership swaps under them — the epoch-tagged
// atomic view is what makes this safe; run under -race.
func TestConcurrentPlacementDuringMembershipChange(t *testing.T) {
	three := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	four := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c", "d": "http://d"}
	valid := map[string]bool{"": true, "a": true, "b": true, "c": true, "d": true}

	rt, err := New(Config{Self: "a", Nodes: three})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := testKeys(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+w)%len(keys)]
				if owner := rt.pick(k); !valid[owner] {
					errs <- "pick returned unknown node " + owner
					return
				}
				r := rt.Ring()
				if owner := r.Lookup(k); !valid[owner] {
					errs <- "Lookup returned unknown node " + owner
					return
				}
				r.Walk(k, func(string) bool { return false })
				_ = rt.Stats()
				_ = rt.aliveNodes()
			}
		}(w)
	}
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			rt.SetMembership(uint64(i+1), four)
		} else {
			rt.SetMembership(uint64(i+1), three)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := rt.Epoch(); got != 400 {
		t.Errorf("final epoch = %d, want 400", got)
	}
	if st := rt.Stats(); st.EpochSwaps != 400 {
		t.Errorf("epoch swaps = %d, want 400", st.EpochSwaps)
	}
}

// TestSetMembershipRejectsOversizedRing: an invalid membership (beyond
// the ring's node bound) must keep the last good view rather than
// replace it.
func TestSetMembershipRejectsOversizedRing(t *testing.T) {
	rt, err := New(Config{Self: "a", Nodes: map[string]string{"a": "http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	huge := make(map[string]string, maxRingNodes+1)
	for i := 0; i <= maxRingNodes; i++ {
		huge[fmt.Sprintf("n%02d", i)] = "http://x"
	}
	rt.SetMembership(9, huge)
	if rt.Epoch() != 0 {
		t.Fatal("oversized membership replaced the view")
	}
	if rt.Ring().Len() != 1 {
		t.Fatalf("ring len = %d, want the original 1", rt.Ring().Len())
	}
}

// BenchmarkHandoffPlan measures planning a graceful leave's handoff:
// resolving the post-leave owner for every locally cached key. Pure
// ring lookups — allocation-free, so a leave's planning cost is linear
// and tiny even for large caches.
func BenchmarkHandoffPlan(b *testing.B) {
	rt, err := New(Config{Self: "a", Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c", "d": "http://d", "e": "http://e",
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	keys := testKeys(512)
	ring := rt.Ring()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := 0
		for _, k := range keys {
			if owner := ring.Lookup(k); owner != "a" {
				moved++
			}
		}
		if moved == 0 {
			b.Fatal("no keys to hand off")
		}
	}
}
