package hmc

import (
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// harness drives an HMC directly at its links, standing in for the host.
type harness struct {
	eng  *sim.Engine
	h    *HMC
	done []*packet.Transaction
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	ha := &harness{eng: sim.NewEngine()}
	ha.h = New(ha.eng, cfg, func(p *packet.Packet) {
		// Consume immediately: release buffer space and record.
		ha.h.ReleaseResp(p.Link, p.Flits())
		p.Tr.TDone = ha.eng.Now()
		ha.done = append(ha.done, p.Tr)
	})
	return ha
}

// send issues a read transaction on the given link, retrying on link
// token exhaustion.
func (ha *harness) send(tr *packet.Transaction) {
	pkt := tr.RequestPacket(tr.Tag)
	var try func()
	try = func() {
		if !ha.h.ReqDir(tr.Link).TrySend(pkt) {
			ha.h.ReqDir(tr.Link).NotifyTokens(try)
		}
	}
	try()
}

func makeRead(id uint64, m *addr.Mapping, a uint64, size, linkID int) *packet.Transaction {
	loc := m.Decode(a)
	return &packet.Transaction{
		ID: id, Addr: a, Size: size, Link: linkID, Tag: uint16(id % 512),
		Vault: loc.Vault, Quadrant: loc.Quadrant, Bank: loc.Bank, Row: loc.Row,
	}
}

func TestSingleReadRoundTrip(t *testing.T) {
	ha := newHarness(t, DefaultConfig())
	m := addr.MustMapping(128)
	tr := makeRead(1, m, 0x1234580, 64, 0)
	ha.eng.Schedule(0, func() { ha.send(tr) })
	ha.eng.Drain()
	if len(ha.done) != 1 {
		t.Fatalf("completed %d, want 1", len(ha.done))
	}
	// Timestamps must be ordered through every stage.
	if !(tr.TLinkTx < tr.TVaultIn && tr.TVaultIn <= tr.TIssued &&
		tr.TIssued < tr.TVaultOut && tr.TVaultOut < tr.TDone) {
		t.Fatalf("timestamps out of order: %+v", tr)
	}
	// No-load latency through the cube: DRAM floor is ~31 ns; with NoC
	// and link it must be in the 50-250 ns range the paper attributes to
	// the device ("100 to 180 ns" plus serialization).
	lat := tr.TDone - tr.TLinkTx
	if lat < 40*sim.Nanosecond || lat > 300*sim.Nanosecond {
		t.Fatalf("device round trip = %v, want 40-300ns", lat)
	}
}

func TestAllVaultsReachable(t *testing.T) {
	ha := newHarness(t, DefaultConfig())
	m := addr.MustMapping(128)
	ha.eng.Schedule(0, func() {
		for v := 0; v < addr.Vaults; v++ {
			a := m.Encode(addr.Location{Vault: v, Bank: 3, Row: 9})
			ha.send(makeRead(uint64(v), m, a, 32, v%2))
		}
	})
	ha.eng.Drain()
	if len(ha.done) != addr.Vaults {
		t.Fatalf("completed %d, want %d", len(ha.done), addr.Vaults)
	}
	seen := map[int]bool{}
	for _, tr := range ha.done {
		seen[tr.Vault] = true
	}
	if len(seen) != addr.Vaults {
		t.Fatalf("only %d distinct vaults served", len(seen))
	}
}

func TestConservationUnderRandomLoad(t *testing.T) {
	ha := newHarness(t, DefaultConfig())
	m := addr.MustMapping(128)
	rng := sim.NewRand(3)
	const n = 3000
	ha.eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a := (rng.Uint64() % addr.CubeBytes) &^ 0x7F
			size := 16 * (rng.Intn(8) + 1)
			tr := makeRead(uint64(i), m, a, size, rng.Intn(2))
			tr.Write = rng.Intn(4) == 0
			ha.send(tr)
		}
	})
	ha.eng.Drain()
	if len(ha.done) != n {
		t.Fatalf("completed %d, want %d", len(ha.done), n)
	}
	if ha.h.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", ha.h.InFlight())
	}
	if q := ha.h.Fabric().QueuedMessages(); q != 0 {
		t.Fatalf("%d messages stuck in fabric", q)
	}
	ids := map[uint64]bool{}
	for _, tr := range ha.done {
		if ids[tr.ID] {
			t.Fatalf("transaction %d completed twice", tr.ID)
		}
		ids[tr.ID] = true
	}
}

func TestVaultBandwidthCapUnderSpray(t *testing.T) {
	// Saturating a single vault from both links must not exceed the TSV
	// counted-byte bandwidth.
	cfg := DefaultConfig()
	ha := newHarness(t, cfg)
	m := addr.MustMapping(128)
	const n = 2000
	ha.eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a := m.Encode(addr.Location{Vault: 0, Bank: i % 16, Row: uint64(i)})
			ha.send(makeRead(uint64(i), m, a, 64, i%2))
		}
	})
	ha.eng.Drain()
	counted := uint64(n) * uint64(packet.RoundTripBytes(false, 64))
	gbps := float64(counted) / ha.eng.Now().Seconds() / 1e9
	if gbps > cfg.Vault.TSVBandwidth.GBpsValue()*1.05 {
		t.Fatalf("single-vault counted bandwidth %.2f GB/s exceeds TSV cap", gbps)
	}
}

func TestSpreadFasterThanSingleVault(t *testing.T) {
	run := func(spread bool) sim.Time {
		ha := newHarness(t, DefaultConfig())
		m := addr.MustMapping(128)
		ha.eng.Schedule(0, func() {
			for i := 0; i < 1500; i++ {
				v := 0
				if spread {
					v = i % addr.Vaults
				}
				a := m.Encode(addr.Location{Vault: v, Bank: i % 16, Row: uint64(i / 16)})
				ha.send(makeRead(uint64(i), m, a, 64, i%2))
			}
		})
		ha.eng.Drain()
		return ha.eng.Now()
	}
	single := run(false)
	spread := run(true)
	if spread >= single {
		t.Fatalf("spread (%v) not faster than single vault (%v)", spread, single)
	}
	if single < 3*spread {
		t.Fatalf("single-vault slowdown only %.1fx, expected >=3x", float64(single)/float64(spread))
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	// Hammer one bank; the cube must bound its internal occupancy at
	// roughly one bank queue plus buffers, pushing the rest back to the
	// sender (Figure 14's per-bank queue inference).
	cfg := DefaultConfig()
	ha := newHarness(t, cfg)
	m := addr.MustMapping(128)
	const n = 2000
	maxInFlight := 0
	ha.eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a := m.Encode(addr.Location{Vault: 0, Bank: 0, Row: uint64(i)})
			ha.send(makeRead(uint64(i), m, a, 16, i%2))
		}
	})
	// Sample occupancy periodically.
	var sample func()
	sample = func() {
		if f := ha.h.InFlight(); f > maxInFlight {
			maxInFlight = f
		}
		if len(ha.done) < n {
			ha.eng.Schedule(sim.Microsecond, sample)
		}
	}
	ha.eng.Schedule(sim.Microsecond, sample)
	ha.eng.Drain()
	// Bound: bank queue (128) + TSV window + NoC + both link input
	// buffers (64 flits each) + slack.
	bound := cfg.Vault.BankQueueDepth + cfg.Vault.TSVWindow +
		2*cfg.ReqRxBufFlits + 2*cfg.NoC.InputBuffer + 32
	if maxInFlight > bound {
		t.Fatalf("in-flight peaked at %d, bound %d", maxInFlight, bound)
	}
	if maxInFlight < cfg.Vault.BankQueueDepth {
		t.Fatalf("in-flight peaked at %d, expected at least a full bank queue (%d)",
			maxInFlight, cfg.Vault.BankQueueDepth)
	}
}

func TestWritesUseRequestBandwidth(t *testing.T) {
	// A 128 B write's request is 9 flits and its response 1; the link
	// TX direction should carry ~9x the flits of the RX direction.
	ha := newHarness(t, DefaultConfig())
	m := addr.MustMapping(128)
	const n = 200
	ha.eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a := (uint64(i) * 8192) % addr.CubeBytes
			tr := makeRead(uint64(i), m, a, 128, 0)
			tr.Write = true
			ha.send(tr)
		}
	})
	ha.eng.Drain()
	tx := ha.h.Link(0).Req.Flits()
	rx := ha.h.Link(0).Resp.Flits()
	if tx != uint64(n*9) || rx != uint64(n) {
		t.Fatalf("tx/rx flits = %d/%d, want %d/%d", tx, rx, n*9, n)
	}
}

func TestLinkChoiceRoutesResponseBack(t *testing.T) {
	ha := newHarness(t, DefaultConfig())
	m := addr.MustMapping(128)
	ha.eng.Schedule(0, func() {
		ha.send(makeRead(1, m, 0x100, 32, 1)) // link 1 only
	})
	ha.eng.Drain()
	if got := ha.h.Link(1).Resp.Packets(); got != 1 {
		t.Fatalf("link 1 carried %d responses, want 1", got)
	}
	if got := ha.h.Link(0).Resp.Packets(); got != 0 {
		t.Fatalf("link 0 carried %d responses, want 0", got)
	}
}
