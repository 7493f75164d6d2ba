package noc

import (
	"testing"

	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// sinkOutlet collects messages, optionally applying backpressure.
type sinkOutlet struct {
	got     []*Message
	block   bool
	waiters []func()
}

func (s *sinkOutlet) TryOut(m *Message) bool {
	if s.block {
		return false
	}
	s.got = append(s.got, m)
	return true
}

func (s *sinkOutlet) NotifyOut(_ *Message, fn func()) { s.waiters = append(s.waiters, fn) }

func (s *sinkOutlet) unblock() {
	s.block = false
	w := s.waiters
	s.waiters = nil
	for _, fn := range w {
		fn()
	}
}

func msg(vault, quadrant, link int, size int) *Message {
	tr := &packet.Transaction{Vault: vault, Quadrant: quadrant, Link: link, Size: size}
	return &Message{Tr: tr, Pkt: tr.RequestPacket(0)}
}

func respMsg(vault, quadrant, link, size int) *Message {
	tr := &packet.Transaction{Vault: vault, Quadrant: quadrant, Link: link, Size: size}
	return &Message{Tr: tr, Pkt: tr.ResponsePacket(0)}
}

func TestRouterForwardsToRoutedOutlet(t *testing.T) {
	eng := sim.NewEngine()
	a, b := &sinkOutlet{}, &sinkOutlet{}
	r := NewRouter(eng, "r", DefaultConfig(),
		func(m *Message) int { return m.Tr.Vault % 2 },
		[]Outlet{a, b})
	eng.Schedule(0, func() {
		r.TryOut(msg(0, 0, 0, 16))
		r.TryOut(msg(1, 0, 0, 16))
		r.TryOut(msg(2, 0, 0, 16))
	})
	eng.Drain()
	if len(a.got) != 2 || len(b.got) != 1 {
		t.Fatalf("routed %d/%d messages, want 2/1", len(a.got), len(b.got))
	}
	if r.Received() != 3 || r.Forwarded() != 3 {
		t.Fatalf("received/forwarded = %d/%d, want 3/3", r.Received(), r.Forwarded())
	}
}

func TestRouterHopLatencyAndSerialization(t *testing.T) {
	eng := sim.NewEngine()
	s := &sinkOutlet{}
	cfg := DefaultConfig()
	r := NewRouter(eng, "r", cfg, func(*Message) int { return 0 }, []Outlet{s})
	var deliveredAt sim.Time
	eng.Schedule(0, func() { r.TryOut(respMsg(0, 0, 0, 128)) }) // 9 flits
	eng.Drain()
	deliveredAt = eng.Now()
	want := 9*cfg.FlitTime + cfg.HopLatency
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestRouterCreditBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	s := &sinkOutlet{block: true}
	cfg := DefaultConfig()
	cfg.InputBuffer = 4
	r := NewRouter(eng, "r", cfg, func(*Message) int { return 0 }, []Outlet{s})
	accepted := 0
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			if r.TryOut(msg(0, 0, 0, 16)) {
				accepted++
			}
		}
	})
	eng.Schedule(sim.Microsecond, func() { s.unblock() })
	eng.Drain()
	if accepted != 4 {
		t.Fatalf("accepted %d with 4 credits, want 4", accepted)
	}
	if len(s.got) != 4 {
		t.Fatalf("delivered %d after unblock, want 4", len(s.got))
	}
}

func TestRouterVOQIndependence(t *testing.T) {
	// A blocked output must not stall traffic routed to another output.
	eng := sim.NewEngine()
	blocked, open := &sinkOutlet{block: true}, &sinkOutlet{}
	r := NewRouter(eng, "r", DefaultConfig(),
		func(m *Message) int { return m.Tr.Vault }, []Outlet{blocked, open})
	eng.Schedule(0, func() {
		r.TryOut(msg(0, 0, 0, 16)) // to blocked outlet
		r.TryOut(msg(1, 0, 0, 16)) // to open outlet
	})
	eng.Run(sim.Microsecond)
	if len(open.got) != 1 {
		t.Fatalf("open outlet got %d messages while sibling blocked, want 1", len(open.got))
	}
	if len(blocked.got) != 0 {
		t.Fatal("blocked outlet received a message")
	}
	blocked.unblock()
	eng.Drain()
	if len(blocked.got) != 1 {
		t.Fatalf("blocked outlet got %d after unblock, want 1", len(blocked.got))
	}
}

func TestChanExternallyBoundedIngress(t *testing.T) {
	eng := sim.NewEngine()
	s := &sinkOutlet{}
	released := 0
	c := NewChan(eng, "in", DefaultConfig(), 0, 50, s)
	c.OnForward = func(int) { released++ }
	eng.Schedule(0, func() {
		for i := 0; i < 50; i++ {
			c.Inject(msg(0, 0, 0, 16))
		}
	})
	eng.Drain()
	if len(s.got) != 50 || released != 50 {
		t.Fatalf("delivered/released = %d/%d, want 50/50", len(s.got), released)
	}
	if c.Received() != 50 || c.Forwarded() != 50 || c.Queued() != 0 {
		t.Fatalf("received/forwarded/queued = %d/%d/%d, want 50/50/0",
			c.Received(), c.Forwarded(), c.Queued())
	}
}

// chokeOutlet accepts one message at a time, releasing its single slot a
// fixed delay later — a stand-in for a congested downstream credit pool.
type chokeOutlet struct {
	eng     *sim.Engine
	credits *sim.TokenPool
	got     []*Message
}

func (o *chokeOutlet) TryOut(m *Message) bool {
	if !o.credits.TryAcquire(1) {
		return false
	}
	o.got = append(o.got, m)
	o.eng.Schedule(10*sim.Nanosecond, func() { o.credits.Release(1) })
	return true
}

func (o *chokeOutlet) NotifyOut(_ *Message, fn func()) { o.credits.Notify(fn) }

func TestChanContendersAlternate(t *testing.T) {
	// Two channels feeding one choked outlet must share it. A channel
	// that retried synchronously inside the credit pool's waiter fire
	// would re-register ahead of its rival every time and capture the
	// pool outright — the starvation bug that wedged one external link.
	eng := sim.NewEngine()
	o := &chokeOutlet{eng: eng, credits: sim.NewTokenPool(1)}
	a := NewChan(eng, "a", DefaultConfig(), 0, 25, o)
	b := NewChan(eng, "b", DefaultConfig(), 0, 25, o)
	eng.Schedule(0, func() {
		for i := 0; i < 25; i++ {
			a.Inject(msg(0, 0, 0, 16))
			b.Inject(msg(1, 0, 0, 16))
		}
	})
	eng.Drain()
	if len(o.got) != 50 {
		t.Fatalf("delivered %d messages, want 50", len(o.got))
	}
	seen := [2]int{}
	for _, m := range o.got[:10] {
		seen[m.Tr.Vault]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("first 10 deliveries split %d/%d between the channels; one is starved", seen[0], seen[1])
	}
}

func newTestFabric(eng *sim.Engine, cfg Config) (*Fabric, []*sinkOutlet, []*sinkOutlet) {
	vaults := make([]*sinkOutlet, 16)
	vaultOutlets := make([]Outlet, 16)
	for i := range vaults {
		vaults[i] = &sinkOutlet{}
		vaultOutlets[i] = vaults[i]
	}
	egress := make([]*sinkOutlet, 2)
	egressOutlets := make([]Outlet, 2)
	for i := range egress {
		egress[i] = &sinkOutlet{}
		egressOutlets[i] = egress[i]
	}
	// The test ingress bound is generous: tests inject whole batches in
	// one instant, where the real system's link-level token pool admits
	// only a dozen flits.
	f := NewFabric(eng, cfg, 4, 4, []int{0, 2}, 512, vaultOutlets, egressOutlets)
	return f, vaults, egress
}

func TestFabricRequestReachesEveryVault(t *testing.T) {
	eng := sim.NewEngine()
	f, vaults, _ := newTestFabric(eng, DefaultConfig())
	eng.Schedule(0, func() {
		for v := 0; v < 16; v++ {
			m := msg(v, v/4, 0, 32)
			f.InjectRequest(0, m)
		}
	})
	eng.Drain()
	for v, s := range vaults {
		if len(s.got) != 1 {
			t.Fatalf("vault %d received %d messages, want 1", v, len(s.got))
		}
		if got := s.got[0].Tr.Vault; got != v {
			t.Fatalf("vault %d received message for vault %d", v, got)
		}
	}
}

func TestFabricLocalVsRemoteQuadrantLatency(t *testing.T) {
	// A request to the link's home quadrant takes one fewer hop than a
	// request to a remote quadrant.
	timeTo := func(vault int) sim.Time {
		eng := sim.NewEngine()
		f, _, _ := newTestFabric(eng, DefaultConfig())
		eng.Schedule(0, func() { f.InjectRequest(0, msg(vault, vault/4, 0, 16)) })
		eng.Drain()
		return eng.Now()
	}
	local := timeTo(0)   // quadrant 0: link 0's home
	remote := timeTo(15) // quadrant 3: one extra hop
	if remote <= local {
		t.Fatalf("remote quadrant (%v) not slower than local (%v)", remote, local)
	}
	cfg := DefaultConfig()
	if diff := remote - local; diff < cfg.HopLatency {
		t.Fatalf("remote-local difference %v smaller than one hop %v", diff, cfg.HopLatency)
	}
}

func TestFabricResponseRoutesToCorrectLink(t *testing.T) {
	eng := sim.NewEngine()
	f, _, egress := newTestFabric(eng, DefaultConfig())
	eng.Schedule(0, func() {
		// Vault 5 (quadrant 1) answers to link 0 (home quadrant 0) and
		// vault 10 (quadrant 2) answers to link 1 (home quadrant 2).
		if !f.RespIngress(1).TryOut(respMsg(5, 1, 0, 64)) {
			t.Error("response injection rejected")
		}
		if !f.RespIngress(2).TryOut(respMsg(10, 2, 1, 64)) {
			t.Error("response injection rejected")
		}
	})
	eng.Drain()
	if len(egress[0].got) != 1 || egress[0].got[0].Tr.Vault != 5 {
		t.Fatalf("link 0 egress got %v", egress[0].got)
	}
	if len(egress[1].got) != 1 || egress[1].got[0].Tr.Vault != 10 {
		t.Fatalf("link 1 egress got %v", egress[1].got)
	}
}

func TestFabricConservation(t *testing.T) {
	// Fire a batch of random requests at both links; every one must
	// arrive at exactly its addressed vault, and no router may hold
	// residual messages.
	eng := sim.NewEngine()
	f, vaults, _ := newTestFabric(eng, DefaultConfig())
	rng := sim.NewRand(7)
	const n = 400
	want := make([]int, 16)
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			v := rng.Intn(16)
			want[v]++
			f.InjectRequest(rng.Intn(2), msg(v, v/4, 0, 16))
		}
	})
	eng.Drain()
	for v, s := range vaults {
		if len(s.got) != want[v] {
			t.Fatalf("vault %d received %d, want %d", v, len(s.got), want[v])
		}
	}
	if q := f.QueuedMessages(); q != 0 {
		t.Fatalf("%d messages stuck in fabric", q)
	}
}

func TestFabricBackpressurePropagatesToIngress(t *testing.T) {
	// With vault 0 blocked, a flood of vault-0 requests must pile up in
	// the fabric without being delivered, and resume after unblocking.
	eng := sim.NewEngine()
	f, vaults, _ := newTestFabric(eng, DefaultConfig())
	vaults[0].block = true
	const n = 100
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			f.InjectRequest(0, msg(0, 0, 0, 16))
		}
	})
	eng.Run(10 * sim.Microsecond)
	if len(vaults[0].got) != 0 {
		t.Fatalf("blocked vault received %d messages", len(vaults[0].got))
	}
	if q := f.QueuedMessages(); q == 0 {
		t.Fatal("no queue buildup under backpressure")
	}
	vaults[0].unblock()
	eng.Drain()
	if len(vaults[0].got) != n {
		t.Fatalf("vault received %d after unblock, want %d", len(vaults[0].got), n)
	}
}

func TestFabricContentionSerializes(t *testing.T) {
	// Two links blasting the same vault must take roughly twice as long
	// as two links addressing different vaults (same total message
	// count): contention for one output serializes.
	run := func(sameVault bool) sim.Time {
		eng := sim.NewEngine()
		f, _, _ := newTestFabric(eng, DefaultConfig())
		eng.Schedule(0, func() {
			for i := 0; i < 200; i++ {
				v0 := 0
				v1 := 0
				if !sameVault {
					v1 = 1
				}
				f.InjectRequest(0, msg(v0, 0, 0, 128))
				f.InjectRequest(1, msg(v1, 0, 0, 128))
			}
		})
		eng.Drain()
		return eng.Now()
	}
	same := run(true)
	diff := run(false)
	if same <= diff {
		t.Fatalf("same-vault contention (%v) not slower than spread (%v)", same, diff)
	}
}
