// Package noc models the HMC logic-layer network-on-chip that connects
// external link ports to the sixteen vault controllers (Figure 1 of the
// paper). The study's central claim is that the characteristics and
// contention of this network — arbitration, buffering, and packetization —
// shape the latency and bandwidth behavior of the whole device.
//
// Topology: one router per quadrant, fully connected to the other three
// quadrant routers; each external link enters the fabric at its home
// quadrant; each router fans out to its four local vaults. Requests and
// responses travel on separate networks (standard deadlock avoidance for
// request/response protocols).
//
// Routers are virtual-output-queued with per-output credits: an incoming
// message is routed once and admitted against the buffer of its output
// queue, so a congested vault back-pressures precisely the traffic heading
// to it while other traffic flows by. Because routing is minimal (at most
// ingress -> home quadrant -> destination quadrant -> vault) and credits
// are per output class, the credit graph is acyclic and the fabric is
// deadlock-free. Contention for the same output serializes on the output
// channel, which is where the paper's observed latency variance within an
// access pattern originates.
package noc

import (
	"fmt"
	"sync"

	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// Message is the unit moved by the fabric: one transaction plus the wire
// packet it currently rides in (request or response), which determines
// serialization time.
type Message struct {
	Tr  *packet.Transaction
	Pkt *packet.Packet
}

// Flits returns the message's current wire length.
func (m *Message) Flits() int { return m.Pkt.Flits() }

// Messages ride a free list: the glue layer creates one per injection
// and the terminal outlet (vault adapter, link egress) releases it, so
// steady-state fabric traffic allocates nothing.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage returns a Message carrying tr and pkt from the free list.
func GetMessage(tr *packet.Transaction, pkt *packet.Packet) *Message {
	m := msgPool.Get().(*Message)
	m.Tr, m.Pkt = tr, pkt
	return m
}

// PutMessage returns m to the free list. The caller must hold the only
// live reference; m must not be touched afterwards.
func PutMessage(m *Message) {
	m.Tr, m.Pkt = nil, nil
	msgPool.Put(m)
}

// Outlet is anything a router output can feed: another router's input,
// a vault adapter, or a link-egress adapter. TryOut must not block; a
// false return means "register fn with NotifyOut(m, fn) and try again
// when it fires". A true return transfers ownership of m to the outlet
// — the caller must not touch the message afterwards, which is what
// lets terminal outlets release it to the free list. NotifyOut takes
// the message so credit-managed outlets can wake the caller on the
// specific resource the message needs; it must use m synchronously and
// not retain it.
type Outlet interface {
	TryOut(m *Message) bool
	NotifyOut(m *Message, fn func())
}

// Config holds the fabric timing parameters.
type Config struct {
	// FlitTime is the serialization time of one flit on an internal
	// channel. The default models a 32-byte datapath at 1.25 GHz:
	// two flits per 800 ps cycle.
	FlitTime sim.Time
	// HopLatency is the router pipeline + wire delay per hop.
	HopLatency sim.Time
	// InputBuffer is the per-output credit pool, in messages. Zero
	// disables admission control (used by externally flow-controlled
	// ingress nodes).
	InputBuffer int

	// Trace, when non-nil, observes message hops and router occupancy.
	// One tracer is shared by every router built from this config. Nil
	// keeps the admission hook a single branch.
	Trace *obs.NoCTracer
}

// DefaultConfig returns the fabric parameters used by the reproduction.
func DefaultConfig() Config {
	return Config{
		FlitTime:    400 * sim.Picosecond,
		HopLatency:  1600 * sim.Picosecond, // 2 cycles at 1.25 GHz
		InputBuffer: 8,
	}
}

// Router is one fabric node with virtual output queues.
type Router struct {
	name string
	eng  *sim.Engine
	cfg  Config

	route   func(*Message) int
	outlets []outState

	// OnForward, when non-nil, runs every time a message of the given
	// flit count leaves the router. Link-ingress nodes use it to return
	// link-level tokens. It receives the length rather than the message
	// because by the time it fires the downstream outlet owns (and may
	// already have released) the message.
	OnForward func(flits int)

	received  uint64
	forwarded uint64
}

type outState struct {
	// ch, when non-nil, replaces this slot's whole output pipeline with
	// a bridge channel (see Chan): the fabric uses bridges for every
	// edge between quadrants and links.
	ch *Chan

	outlet  Outlet
	credits *sim.TokenPool // nil when InputBuffer == 0
	server  *sim.Server
	queue   *sim.Queue[*Message]
	pumping bool

	// inflight is the message popped from the queue and currently being
	// serialized, flown, or retried against the downstream outlet; the
	// pre-bound callbacks below read it so no per-message closures are
	// needed.
	inflight *Message
	serFn    func() // serialization finished: start the hop
	delivFn  func() // hop finished (or downstream freed up): deliver
}

// NewRouter builds a router. route maps a message to an outlet index in
// outlets; it must be total for all traffic the router can receive.
func NewRouter(eng *sim.Engine, name string, cfg Config, route func(*Message) int, outlets []Outlet) *Router {
	if cfg.InputBuffer < 0 {
		panic(fmt.Sprintf("noc %s: negative InputBuffer", name))
	}
	r := &Router{
		name:    name,
		eng:     eng,
		cfg:     cfg,
		route:   route,
		outlets: make([]outState, len(outlets)),
	}
	for i, o := range outlets {
		i := i
		var credits *sim.TokenPool
		if cfg.InputBuffer > 0 {
			credits = sim.NewTokenPool(cfg.InputBuffer)
		}
		st := &r.outlets[i]
		st.outlet = o
		st.credits = credits
		st.server = sim.NewServer(eng)
		st.queue = sim.NewQueue[*Message](0) // bounded by the credit pool
		st.serFn = func() { r.eng.Schedule(r.cfg.HopLatency, st.delivFn) }
		st.delivFn = func() { r.deliver(i) }
	}
	return r
}

// Name returns the router's diagnostic name.
func (r *Router) Name() string { return r.name }

// TryOut implements Outlet: upstream senders inject into this router,
// admitted against the credit pool of the output the message routes to.
// Bridge slots delegate to their channel; the router still counts the
// admission and samples its occupancy for the tracer.
func (r *Router) TryOut(m *Message) bool {
	o := &r.outlets[r.routeIndex(m)]
	if o.ch != nil {
		if !o.ch.TryOut(m) {
			return false
		}
		r.received++
		if r.cfg.Trace != nil {
			r.cfg.Trace.OnHop(r.Queued())
		}
		return true
	}
	if o.credits != nil && !o.credits.TryAcquire(1) {
		return false
	}
	r.accept(m)
	return true
}

// NotifyOut implements Outlet: fn fires when the output queue m routes to
// frees a slot.
func (r *Router) NotifyOut(m *Message, fn func()) {
	o := &r.outlets[r.routeIndex(m)]
	if o.ch != nil {
		o.ch.NotifyOut(m, fn)
		return
	}
	if o.credits == nil {
		fn()
		return
	}
	o.credits.Notify(fn)
}

func (r *Router) routeIndex(m *Message) int {
	i := r.route(m)
	if i < 0 || i >= len(r.outlets) {
		panic(fmt.Sprintf("noc %s: route returned %d for %v", r.name, i, m.Pkt))
	}
	return i
}

func (r *Router) accept(m *Message) {
	r.received++
	i := r.routeIndex(m)
	r.outlets[i].queue.Push(r.eng.Now(), m)
	if r.cfg.Trace != nil {
		// Guarded (not a nil-receiver hook) because the occupancy scan
		// itself is work the untraced path must not pay.
		r.cfg.Trace.OnHop(r.Queued())
	}
	r.pump(i)
}

// pump drains output i: serialize the head message on the output channel,
// then deliver it downstream after the hop latency. If the downstream is
// full the message holds the output — head-of-line blocking at a congested
// vault or link, exactly the contention mechanism under study.
//
// At most one message per output is past the queue at a time (pumping
// stays set until delivery succeeds), so the in-flight message lives in
// the outState slot and the pre-bound serFn/delivFn callbacks carry no
// per-message state.
func (r *Router) pump(i int) {
	o := &r.outlets[i]
	if o.pumping {
		return
	}
	m, ok := o.queue.Pop(r.eng.Now())
	if !ok {
		return
	}
	o.pumping = true
	o.inflight = m
	o.server.Reserve(r.cfg.FlitTime*sim.Time(m.Flits()), o.serFn)
}

func (r *Router) deliver(i int) {
	o := &r.outlets[i]
	m := o.inflight
	var flits int
	if r.OnForward != nil {
		flits = m.Flits() // read before the outlet takes ownership
	}
	if !o.outlet.TryOut(m) {
		o.outlet.NotifyOut(m, o.delivFn)
		return
	}
	// The outlet now owns m; a terminal outlet may already have released
	// it to the free list, so it must not be touched below this line.
	o.inflight = nil
	// The credit is held until the message has fully left the router,
	// keeping each pool a true bound on per-output occupancy.
	if o.credits != nil {
		o.credits.Release(1)
	}
	r.forwarded++
	if r.OnForward != nil {
		r.OnForward(flits)
	}
	o.pumping = false
	r.pump(i)
}

// SetOutlet wires output slot i after construction; the fabric builder
// needs this because quadrant routers reference each other cyclically.
func (r *Router) SetOutlet(i int, o Outlet) {
	r.outlets[i].outlet = o
}

// SetChan replaces output slot i's queue/server/credit pipeline with a
// bridge channel; messages routed to the slot are admitted against the
// channel's credits and paced by its server instead.
func (r *Router) SetChan(i int, c *Chan) {
	st := &r.outlets[i]
	st.ch = c
	st.outlet, st.credits, st.server, st.queue = nil, nil, nil, nil
	st.serFn, st.delivFn = nil, nil
}

// Received returns the number of messages injected into the router.
func (r *Router) Received() uint64 { return r.received }

// Forwarded returns the number of messages sent downstream, including
// through bridge slots (counted when their credit returns).
func (r *Router) Forwarded() uint64 {
	n := r.forwarded
	for i := range r.outlets {
		if c := r.outlets[i].ch; c != nil {
			n += c.Forwarded()
		}
	}
	return n
}

// Queued returns the total messages parked in the router, including any
// held on a blocked output and any inside bridge slots' channels.
func (r *Router) Queued() int {
	n := 0
	for i := range r.outlets {
		if c := r.outlets[i].ch; c != nil {
			n += c.Queued()
			continue
		}
		n += r.outlets[i].queue.Len()
		if r.outlets[i].pumping {
			n++ // popped but not yet delivered
		}
	}
	return n
}
