package sim

import "testing"

// Differential order tests for the two-tier event queue and Line. A
// scripted model schedules ordinary (At) and channel (AtKey with
// ChanKey) events whose delays straddle every tier boundary, and items
// on three Lines, and a shadow list of the pending events checks each
// firing against a reference: the fired event must be the minimum of
// everything pending by (at, key), exactly as a single sorted queue
// would pick it. A line item's reference key is the ordinary key At
// would have given it when it was scheduled.

// orderEvent is one scheduled event as the shadow list records it.
type orderEvent struct {
	at  Time
	key uint64
	id  int
}

// orderModel drives an engine from a byte script and keeps the shadow
// list. Every firing consumes script bytes to pick how many children it
// schedules and, for each, its delay class and ordering key.
type orderModel struct {
	t       testing.TB
	eng     *Engine
	script  []byte
	pos     int
	pending []orderEvent
	budget  int // events left to schedule; bounds the run
	nextID  int
	seqKey  uint64 // the engine's At key counter, mirrored
	chanSeq [4]uint64
	chanID  [4]uint64
	fired   int

	lines    [3]*Line[int] // each delivers the id of its item to fire
	lineTail [3]Time       // due time of each line's last item
	inLine   int           // the line whose item is firing, -1 if none

	interrupted bool // the checkpoint phase stopped its Run early
	lineTies    int  // line items due at the same time as their line's tail
	lineSelf    int  // line items scheduled from their own line's firing
}

func newOrderModel(t testing.TB, script []byte, budget int) *orderModel {
	m := &orderModel{t: t, eng: NewEngine(), script: script, budget: budget, inLine: -1}
	for i := range m.chanID {
		m.chanID[i] = m.eng.AllocChanID()
	}
	for i := range m.lines {
		i := i
		m.lines[i] = NewLine(m.eng, func(id int) {
			m.inLine = i
			m.fire(id)
			m.inLine = -1
		})
	}
	return m
}

// next returns the next script byte, cycling; an empty script reads 0.
func (m *orderModel) next() byte {
	if len(m.script) == 0 {
		return 0
	}
	b := m.script[m.pos%len(m.script)]
	m.pos++
	return b
}

// delay maps a script byte to a delay from now in one of eight classes
// chosen to hit the queue's edges.
func (m *orderModel) delay(b byte) Time {
	now := m.eng.Now()
	v := Time(b >> 3)
	switch b & 7 {
	case 0: // same instant
		return 0
	case 1: // within one bucket
		return v * 61
	case 2: // dense near future, up to ~127 ns
		return v * 4099
	case 3: // one before, at and one past aligned(now)+horizon
		return now&^(nearWidth-1) + nearHorizon + v%3 - 1 - now
	case 4: // the 262 ns–4 µs tail
		return 262*Nanosecond + v*117*Nanosecond
	case 5: // idle gaps that lap the ring hundreds of times
		return (v + 1) * 50 * Microsecond
	case 6: // exactly one horizon from now
		return nearHorizon
	default: // whole buckets
		return v * nearWidth
	}
}

// schedule adds one child event or line item, if the budget allows.
// A line item is due no earlier than its line's tail: a delay that
// would put it before the tail puts it at the tail instead, an
// equal-time tie.
func (m *orderModel) schedule() {
	if m.budget == 0 {
		return
	}
	m.budget--
	at := m.eng.Now() + m.delay(m.next())
	id := m.nextID
	m.nextID++
	fn := func() { m.fire(id) }
	k := m.next()
	if k&1 == 0 {
		m.seqKey++
		m.pending = append(m.pending, orderEvent{at: at, key: m.seqKey, id: id})
		m.eng.At(at, fn)
		return
	}
	c := int(k>>1) % (len(m.chanID) + len(m.lines))
	if l := c - len(m.chanID); l >= 0 {
		if at <= m.lineTail[l] && m.lines[l].items.Len() > 0 {
			at = m.lineTail[l]
			m.lineTies++
		}
		if l == m.inLine {
			m.lineSelf++
		}
		m.lineTail[l] = at
		m.seqKey++
		m.pending = append(m.pending, orderEvent{at: at, key: m.seqKey, id: id})
		m.lines[l].At(at, id)
		return
	}
	m.chanSeq[c]++
	key := ChanKey(m.chanID[c], m.chanSeq[c])
	m.pending = append(m.pending, orderEvent{at: at, key: key, id: id})
	m.eng.AtKey(at, key, fn)
}

// spawn schedules up to three children, as the script says.
func (m *orderModel) spawn() {
	for n := m.next() & 3; n > 0; n-- {
		m.schedule()
	}
}

// fire checks that event id is the (at, key) minimum of the shadow list
// and fires at its time, then spawns its children.
func (m *orderModel) fire(id int) {
	m.t.Helper()
	min := m.minIndex()
	if min < 0 {
		m.t.Fatalf("event %d fired with nothing pending", id)
	}
	want := m.pending[min]
	if want.id != id {
		m.t.Fatalf("fired event %d; want %d at %v key %#x", id, want.id, want.at, want.key)
	}
	if now := m.eng.Now(); now != want.at {
		m.t.Fatalf("event %d fired at %v, scheduled for %v", id, now, want.at)
	}
	m.pending[min] = m.pending[len(m.pending)-1]
	m.pending = m.pending[:len(m.pending)-1]
	m.fired++
	m.spawn()
}

// minIndex returns the shadow index of the (at, key) minimum, -1 if empty.
func (m *orderModel) minIndex() int {
	min := -1
	for i := range m.pending {
		p := &m.pending[i]
		if min < 0 || p.at < m.pending[min].at ||
			(p.at == m.pending[min].at && p.key < m.pending[min].key) {
			min = i
		}
	}
	return min
}

// check verifies the engine's pending count against the shadow list.
func (m *orderModel) check(phase string) {
	m.t.Helper()
	if got, want := m.eng.Pending(), len(m.pending); got != want {
		m.t.Fatalf("%s: Pending() = %d, shadow holds %d", phase, got, want)
	}
}

// runUntil runs to until and checks that the engine stopped exactly
// where a sorted queue would: everything due has fired, nothing later
// has, and the clock sits at until.
func (m *orderModel) runUntil(phase string, until Time) {
	m.t.Helper()
	if got := m.eng.Run(until); got != until || m.eng.Interrupted() {
		m.t.Fatalf("%s: Run(%v) = %v, interrupted=%v", phase, until, got, m.eng.Interrupted())
	}
	for _, p := range m.pending {
		if p.at <= until {
			m.t.Fatalf("%s: event %d at %v still pending after Run(%v)", phase, p.id, p.at, until)
		}
	}
	m.check(phase)
}

// play runs the whole scenario: roots, a partial Run, fresh events
// scheduled from outside at the new clock, a checkpoint interrupt and
// its resume, another partial Run, and a final Drain. It reports
// whether the first partial Run left events in both tiers.
func (m *orderModel) play() (bothTiers bool) {
	for i := 0; i < 4; i++ {
		m.schedule()
	}
	m.check("roots")

	m.runUntil("run 1", m.eng.Now()+Time(m.next())*Nanosecond)
	bothTiers = m.eng.nearN > 0 && len(m.eng.pq) > 0
	m.spawn()
	m.check("outside spawn")

	// Interrupt at the first checkpoint, then resume without it.
	every := uint64(m.next()%16) + 1
	m.eng.SetCheckpoint(every, func() bool { return false })
	before := m.fired
	m.eng.Run(m.eng.Now() + 200*Microsecond)
	m.interrupted = m.eng.Interrupted()
	if m.interrupted && m.fired-before != int(every) {
		m.t.Fatalf("checkpoint every %d interrupted after %d events", every, m.fired-before)
	}
	m.check("interrupted")
	m.eng.SetCheckpoint(0, nil)
	m.runUntil("resume", m.eng.Now()+Time(m.next())*Microsecond)
	m.spawn()

	m.eng.Drain()
	if m.eng.Interrupted() {
		m.t.Fatal("Drain interrupted with no checkpoint installed")
	}
	if len(m.pending) != 0 {
		m.t.Fatalf("Drain left %d shadow events unfired", len(m.pending))
	}
	m.check("drain")
	return bothTiers
}

// TestEngineOrderMatchesReference plays many random scripts. At least
// some of them must stop the first partial Run with events in both
// tiers and be interrupted at a checkpoint, and some line items must
// tie with their line's tail or be scheduled from their own line's
// firing, or the test would not be exercising the peek across tiers,
// the resume and the line refill.
func TestEngineOrderMatchesReference(t *testing.T) {
	r := NewRand(12)
	both, interrupted, ties, self := 0, 0, 0, 0
	for i := 0; i < 200; i++ {
		script := make([]byte, 1+r.Intn(256))
		for j := range script {
			script[j] = byte(r.Uint64())
		}
		m := newOrderModel(t, script, 2000)
		if m.play() {
			both++
		}
		if m.interrupted {
			interrupted++
		}
		ties += m.lineTies
		self += m.lineSelf
		if m.fired != m.nextID {
			t.Fatalf("script %d: fired %d of %d scheduled events", i, m.fired, m.nextID)
		}
	}
	if both == 0 || interrupted == 0 {
		t.Fatalf("%d scripts stopped a Run with events in both tiers and %d were interrupted; want some of each", both, interrupted)
	}
	if ties == 0 || self == 0 {
		t.Fatalf("%d line items tied with their tail and %d were scheduled from their own line; want some of each", ties, self)
	}
}

// FuzzEngineOrder lets the fuzzer choose the script. The checked-in
// corpus under testdata/fuzz covers same-instant bursts, the horizon
// edge, ring-lapping gaps, channel-key ties, and line items tied at
// their line's tail and pushed from inside their own line's firing.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		newOrderModel(t, script, 1000).play()
	})
}
