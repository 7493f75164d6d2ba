// Package host models the FPGA side of the AC-510 evaluation system
// (Section III of the paper): up to nine traffic-generating ports, the
// Micron HMC controller they share, tag pools bounding outstanding
// requests, and the monitoring logic that records read latencies.
//
// Two firmware personalities are provided, matching the paper's Figure 5:
//
//   - GUPSPort: a free-running address generator issuing random or linear
//     requests shaped by an address mask/anti-mask (Figure 5a).
//   - StreamPort: a trace-driven port that issues a finite burst of
//     requests and streams response data back to the host over a
//     dedicated per-port channel (Figure 5b).
package host

import (
	"fmt"

	"hmcsim/internal/link"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// Config holds the host-side calibration constants. They are the single
// source of truth for the FPGA model and are documented in DESIGN.md.
type Config struct {
	// FPGAClockHz is the fabric clock; the AC-510 design runs at
	// 187.5 MHz, which is why nine parallel ports are needed to source
	// enough requests (Section III-B).
	FPGAClockHz float64

	// CtrlFlitSlotsPerCycle is the HMC controller's aggregate flit
	// throughput per FPGA cycle, shared between the transmit and receive
	// paths. Together with CtrlPacketOverheadSlots it sets the
	// controller-bound saturation bandwidth (the ~23 GB/s ceiling of
	// Figures 6 and 13d).
	CtrlFlitSlotsPerCycle float64
	// CtrlPacketOverheadSlots is the fixed per-packet processing cost in
	// flit slots; it penalizes small packets, reproducing the paper's
	// observation that small requests cannot reach the large-packet
	// bandwidth even at full port count.
	CtrlPacketOverheadSlots float64

	// TxLatency and RxLatency are the fixed pipeline latencies between a
	// port and the link SerDes in each direction. Together with link and
	// cube latencies they make up the ~547 ns infrastructure floor the
	// paper carries over from [18].
	TxLatency sim.Time
	RxLatency sim.Time

	// GUPSTagsPerPort and StreamTagsPerPort bound outstanding requests
	// per port; the read tag pool of Figure 5.
	GUPSTagsPerPort   int
	StreamTagsPerPort int

	// StreamChanBytesPerCycle is the width of a stream port's dedicated
	// response channel to the host (PicoStream). Reading one 16-byte
	// word per cycle is what makes large responses pile up in Figures 7
	// and 8.
	StreamChanBytesPerCycle int

	// Trace, when non-nil, observes the port tag pools (outstanding
	// counts, empty-pool stalls) across every port built from this
	// config. Nil keeps the issue-path hooks single branches.
	Trace *obs.HostTracer
}

// DefaultConfig returns the AC-510 host calibration.
func DefaultConfig() Config {
	return Config{
		FPGAClockHz:             187.5e6,
		CtrlFlitSlotsPerCycle:   8,
		CtrlPacketOverheadSlots: 0.5,
		TxLatency:               300 * sim.Nanosecond,
		RxLatency:               300 * sim.Nanosecond,
		GUPSTagsPerPort:         80,
		StreamTagsPerPort:       96,
		StreamChanBytesPerCycle: 16,
	}
}

// Clock returns the FPGA clock domain.
func (c Config) Clock() sim.Clock { return sim.NewClockHz(c.FPGAClockHz) }

// Device is the slice of the HMC the controller drives: request links in,
// response buffer releases out.
type Device interface {
	ReqDir(l int) *link.Dir
	ReleaseResp(l, flits int)
	Links() int
}

// completer receives finished transactions back at their issuing port.
type completer interface {
	complete(tr *packet.Transaction)
}

// Controller models the Micron HMC controller on the FPGA: a shared
// packet-processing engine in front of the link SerDes. Its throughput is
// a budget of flit slots per cycle plus a per-packet overhead, consumed by
// both directions.
//
// Packets move through fixed-order stages — the shared packet engine,
// then the Tx or Rx pipeline — each backed by a ring of in-flight work
// and a callback bound once at construction, so steady-state request and
// response processing allocates nothing.
type Controller struct {
	eng   *sim.Engine
	cfg   Config
	dev   Device
	ports map[int]completer

	engine   *sim.Server
	slotTime sim.Time
	dirs     []*link.Dir // dev.ReqDir(l) for every link, cached once
	rr       int         // link the next send attempt tries first

	jobs     sim.Ring[ctrlJob] // on the packet engine, FIFO by Reserve order
	engineFn func()
	txq      sim.Ring[*packet.Packet] // in the Tx pipeline (constant TxLatency)
	txFn     func()
	rxq      sim.Ring[*packet.Transaction] // in the Rx pipeline (constant RxLatency)
	rxFn     func()

	// parked[l] holds, in arrival order, the requests whose last attempt
	// found every link full and that wait on link l's token pool (the
	// first link that attempt tried). While it is non-empty exactly one
	// waker, wakeFns[l], is armed on that pool (armed[l]), however many
	// packets wait behind it. A release fires the waker, which retries
	// the packets parked when it fired, each as one attempt of its own.
	parked  []sim.Ring[*packet.Packet]
	armed   []bool
	wakeFns []func()

	reqsSent  uint64
	respsRecv uint64
}

// ctrlJob is one packet occupying the shared engine: a request on its
// way out or a response on its way in.
type ctrlJob struct {
	pkt  *packet.Packet
	resp bool
}

// NewController builds the controller for the given device.
func NewController(eng *sim.Engine, cfg Config, dev Device) *Controller {
	if cfg.CtrlFlitSlotsPerCycle <= 0 {
		panic("host: CtrlFlitSlotsPerCycle must be positive")
	}
	period := cfg.Clock().Period
	c := &Controller{
		eng:      eng,
		cfg:      cfg,
		dev:      dev,
		ports:    make(map[int]completer),
		engine:   sim.NewServer(eng),
		slotTime: sim.Time(float64(period)/cfg.CtrlFlitSlotsPerCycle + 0.5),
	}
	c.engineFn = c.engineDone
	c.txFn = c.txDone
	c.rxFn = c.rxDone
	n := dev.Links()
	c.dirs = make([]*link.Dir, n)
	c.parked = make([]sim.Ring[*packet.Packet], n)
	c.armed = make([]bool, n)
	c.wakeFns = make([]func(), n)
	for l := range c.dirs {
		l := l
		c.dirs[l] = dev.ReqDir(l)
		c.wakeFns[l] = func() { c.wake(l) }
	}
	return c
}

// service returns the controller processing time for one packet.
func (c *Controller) service(p *packet.Packet) sim.Time {
	slots := float64(p.Flits()) + c.cfg.CtrlPacketOverheadSlots
	return sim.Time(slots*float64(c.slotTime) + 0.5)
}

// register attaches a port for completion callbacks.
func (c *Controller) register(id int, p completer) {
	if _, dup := c.ports[id]; dup {
		panic(fmt.Sprintf("host: duplicate port id %d", id))
	}
	c.ports[id] = p
}

// Submit accepts a transaction from a port, processes the request packet,
// and pushes it onto a link. Ports bound their own submissions with tag
// pools, so Submit never rejects.
func (c *Controller) Submit(tr *packet.Transaction) {
	tr.TPortOut = c.eng.Now()
	pkt := tr.RequestPacket(tr.Tag)
	c.jobs.Push(ctrlJob{pkt: pkt})
	c.engine.Reserve(c.service(pkt), c.engineFn)
}

// engineDone fires when the packet engine finishes its oldest
// reservation; reservations complete in Reserve order, so the head of
// the job ring is the packet that just finished processing.
func (c *Controller) engineDone() {
	j := c.jobs.Pop()
	if j.resp {
		tr := j.pkt.Tr
		// Only now does the packet leave the link receive buffer; it has
		// served its purpose, so it goes back to the free list.
		c.dev.ReleaseResp(j.pkt.Link, j.pkt.Flits())
		packet.PutPacket(j.pkt)
		c.rxq.Push(tr)
		c.eng.Schedule(c.cfg.RxLatency, c.rxFn)
		return
	}
	c.txq.Push(j.pkt)
	c.eng.Schedule(c.cfg.TxLatency, c.txFn)
}

// txDone fires TxLatency after a request finished the packet engine.
func (c *Controller) txDone() { c.sendReq(c.txq.Pop()) }

// rxDone fires RxLatency after a response left the link buffer: the
// transaction returns to its issuing port.
func (c *Controller) rxDone() {
	tr := c.rxq.Pop()
	port, ok := c.ports[tr.Port]
	if !ok {
		panic(fmt.Sprintf("host: response for unknown port %d", tr.Port))
	}
	port.complete(tr)
}

// sendReq makes one attempt to push the packet onto a link: it tries
// every link once, in ring order from rr, and advances rr by one
// whatever the outcome. When the cube exerts back-pressure on all of
// them, the packet parks on the first link it tried.
//
//hmcsim:hotpath
func (c *Controller) sendReq(pkt *packet.Packet) {
	first := c.nextLink()
	l := first
	for range c.dirs {
		pkt.Link = l
		pkt.Tr.Link = l
		if c.dirs[l].TrySend(pkt) {
			c.reqsSent++
			return
		}
		if l++; l == len(c.dirs) {
			l = 0
		}
	}
	c.park(first, pkt)
}

// nextLink returns rr and steps it round the ring.
//
//hmcsim:hotpath
func (c *Controller) nextLink() int {
	l := c.rr
	if c.rr++; c.rr == len(c.dirs) {
		c.rr = 0
	}
	return l
}

// park queues a packet on link l's token pool.
//
//hmcsim:hotpath
func (c *Controller) park(l int, pkt *packet.Packet) {
	c.parked[l].Push(pkt)
	c.arm(l)
}

// arm registers link l's waker on its token pool unless it is already
// armed.
//
//hmcsim:hotpath
func (c *Controller) arm(l int) {
	if !c.armed[l] {
		c.armed[l] = true
		c.dirs[l].NotifyTokens(c.wakeFns[l])
	}
}

// wake runs when link l's token pool releases: each packet parked on l
// when it fired gets one send attempt, in parking order. Packets that
// fail again re-park behind them, on l or on another link, and wait for
// that pool's next release. No tokens are released during the wave, so
// a packet larger than every link's free space is bound to fail; it
// takes the attempt's bookkeeping without probing the links.
//
//hmcsim:hotpath
func (c *Controller) wake(l int) {
	c.armed[l] = false
	q := &c.parked[l]
	free := c.maxTokens()
	m := q.Len()
	for ; m > 0 && free > 0; m-- {
		pkt := q.Pop()
		if pkt.Flits() > free {
			c.park(c.nextLink(), pkt)
			continue
		}
		c.sendReq(pkt)
		free = c.maxTokens()
	}
	if m == 0 {
		return
	}
	// Every link is full, so not even a 1-flit packet fits: the rest of
	// the wave re-parks round-robin from rr without looking at the
	// packets, and then every link holding packets arms.
	next := c.rr
	for ; m > 0; m-- {
		c.parked[next].Push(q.Pop())
		if next++; next == len(c.dirs) {
			next = 0
		}
	}
	c.rr = next
	for k := range c.parked {
		if !c.parked[k].Empty() {
			c.arm(k)
		}
	}
}

// maxTokens returns the largest free space among the request links.
//
//hmcsim:hotpath
func (c *Controller) maxTokens() int {
	free := 0
	for _, d := range c.dirs {
		if t := d.TokensAvailable(); t > free {
			free = t
		}
	}
	return free
}

// OnResponse is wired as the cube's response delivery callback.
func (c *Controller) OnResponse(pkt *packet.Packet) {
	pkt.Tr.TLinkRx = c.eng.Now()
	c.respsRecv++
	c.jobs.Push(ctrlJob{pkt: pkt, resp: true})
	c.engine.Reserve(c.service(pkt), c.engineFn)
}

// RequestsSent returns the number of request packets pushed to links.
func (c *Controller) RequestsSent() uint64 { return c.reqsSent }

// ResponsesReceived returns the number of responses taken off the links.
func (c *Controller) ResponsesReceived() uint64 { return c.respsRecv }

// Utilization reports the packet engine's busy fraction.
func (c *Controller) Utilization(now sim.Time) float64 { return c.engine.Utilization(now) }

// tagPool is the port-level pool of transaction tags (Rd.Tag Pool in
// Figure 5). Tags are small integers unique per port so the wire format's
// 11-bit field can address them.
type tagPool struct {
	free    []uint16
	waiters sim.Waiters
	size    int
	trace   *obs.HostTracer
}

func newTagPool(port, n int, trace *obs.HostTracer) *tagPool {
	p := &tagPool{size: n, trace: trace}
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, uint16((port*n+i)%2048))
	}
	return p
}

func (p *tagPool) take() (uint16, bool) {
	if len(p.free) == 0 {
		p.trace.OnTagWait()
		return 0, false
	}
	t := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.trace.OnTagTake(p.size - len(p.free))
	return t, true
}

func (p *tagPool) put(t uint16) {
	p.free = append(p.free, t)
	p.waiters.Fire()
}

func (p *tagPool) notify(fn func()) { p.waiters.Add(fn) }

func (p *tagPool) outstanding() int { return p.size - len(p.free) }

// Monitor is the per-port monitoring logic (Section III-B): total reads
// and writes, aggregate/minimum/maximum read latency. It sits outside the
// critical path; recording costs no simulated time.
type Monitor struct {
	Reads, Writes uint64
	AggLat        sim.Time
	MinLat        sim.Time
	MaxLat        sim.Time
	CountedBytes  uint64

	windowStart sim.Time

	// OnComplete, when non-nil, observes every completed transaction;
	// experiments hook histograms here.
	OnComplete func(tr *packet.Transaction)
}

// Reset clears the window counters; experiments call it after warm-up.
func (m *Monitor) Reset(now sim.Time) {
	m.Reads, m.Writes = 0, 0
	m.AggLat, m.MinLat, m.MaxLat = 0, 0, 0
	m.CountedBytes = 0
	m.windowStart = now
}

// WindowStart returns the time of the last Reset.
func (m *Monitor) WindowStart() sim.Time { return m.windowStart }

func (m *Monitor) record(tr *packet.Transaction) {
	lat := tr.Latency()
	if tr.Write {
		m.Writes++
	} else {
		// As in the firmware, latency statistics cover reads.
		m.Reads++
		m.AggLat += lat
		if m.MinLat == 0 || lat < m.MinLat {
			m.MinLat = lat
		}
		if lat > m.MaxLat {
			m.MaxLat = lat
		}
	}
	m.CountedBytes += uint64(tr.RoundTripBytes())
	if m.OnComplete != nil {
		m.OnComplete(tr)
	}
}

// AvgLat returns the mean read latency since the last reset.
func (m *Monitor) AvgLat() sim.Time {
	if m.Reads == 0 {
		return 0
	}
	return m.AggLat / sim.Time(m.Reads)
}
