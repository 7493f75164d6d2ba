package host

import (
	"fmt"
	"slices"
	"testing"

	"hmcsim/internal/link"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// refController is the controller's send path as it was before parked
// requests shared one waker per link: every parked packet holds its own
// waiter on the token pool of the first link its attempt tried, and each
// release re-runs all of them. It is the reference the waker design must
// match attempt for attempt.
type refController struct {
	dev      Device
	rr       int
	blockedq []sim.Ring[*packet.Packet]
	retryFns []func()
	reqsSent uint64
}

func newRefController(dev Device) *refController {
	c := &refController{
		dev:      dev,
		blockedq: make([]sim.Ring[*packet.Packet], dev.Links()),
		retryFns: make([]func(), dev.Links()),
	}
	for l := range c.retryFns {
		l := l
		c.retryFns[l] = func() { c.sendReq(c.blockedq[l].Pop()) }
	}
	return c
}

func (c *refController) sendReq(pkt *packet.Packet) {
	links := c.dev.Links()
	first := c.rr
	c.rr = (c.rr + 1) % links
	for i := 0; i < links; i++ {
		l := (first + i) % links
		pkt.Link = l
		pkt.Tr.Link = l
		if c.dev.ReqDir(l).TrySend(pkt) {
			c.reqsSent++
			return
		}
	}
	c.blockedq[first].Push(pkt)
	c.dev.ReqDir(first).NotifyTokens(c.retryFns[first])
}

// parkRig is a Device of bare request links whose token pools a test
// releases by hand. By default it logs every packet the links deliver
// as "tag@link"; each link's serializer is FIFO, so the log's per-link
// projection is that link's transmit sequence.
type parkRig struct {
	eng     *sim.Engine
	dirs    []*link.Dir
	log     []string
	deliver func(*packet.Packet)
}

func newParkRig(links, bufFlits int) *parkRig {
	r := &parkRig{eng: sim.NewEngine()}
	r.deliver = func(p *packet.Packet) { r.log = append(r.log, fmt.Sprintf("%d@%d", p.Tag, p.Link)) }
	cfg := link.DefaultConfig()
	cfg.RxBufFlits = bufFlits
	for l := 0; l < links; l++ {
		r.dirs = append(r.dirs, link.NewDir(r.eng, fmt.Sprintf("req%d", l), cfg, func(p *packet.Packet) { r.deliver(p) }))
	}
	return r
}

func (r *parkRig) ReqDir(l int) *link.Dir { return r.dirs[l] }
func (r *parkRig) ReleaseResp(int, int)   {}
func (r *parkRig) Links() int             { return len(r.dirs) }

func parkPacket(tag uint16, write bool) *packet.Packet {
	p := &packet.Packet{Cmd: packet.CmdRead, Tag: tag, Size: 128, Tr: &packet.Transaction{}}
	if write {
		p.Cmd = packet.CmdWrite // 9 flits
	}
	return p
}

func ringTags(q *sim.Ring[*packet.Packet]) []uint16 {
	tags := make([]uint16, q.Len())
	for i := range tags {
		tags[i] = q.At(i).Tag
	}
	return tags
}

// playParkScript drives the controller and the reference through the
// same script and fails on the first step after which they disagree.
// Byte 0 picks 1-3 links and byte 1 each link's token pool (9-16
// flits, so an idle link always fits a 9-flit write). Every later byte
// is one step: when its low two bits are 3, a release of 1-9 flits on
// one link (clamped to what that link holds); otherwise a fresh send of
// a 1-flit read or, one time in four, a 9-flit write.
func playParkScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) < 2 {
		return
	}
	links, buf := 1+int(script[0])%3, 9+int(script[1])%8
	refRig, newRig := newParkRig(links, buf), newParkRig(links, buf)
	ref := newRefController(refRig)
	ctrl := NewController(newRig.eng, DefaultConfig(), newRig)
	var tag uint16
	for step, b := range script[2:] {
		if b&3 == 3 {
			l, n := int(b>>2&3)%links, 1+int(b>>4)%9
			n = min(n, buf-refRig.dirs[l].TokensAvailable())
			if n > 0 {
				refRig.dirs[l].Release(n)
				newRig.dirs[l].Release(n)
			}
		} else {
			write := b>>2&3 == 0
			ref.sendReq(parkPacket(tag, write))
			ctrl.sendReq(parkPacket(tag, write))
			tag++
		}
		refRig.eng.Drain()
		newRig.eng.Drain()
		what := fmt.Sprintf("step %d (byte %#02x, %d links, %d-flit pools)", step, b, links, buf)
		if !slices.Equal(refRig.log, newRig.log) {
			t.Fatalf("%s: transmit log\n got %v\nwant %v", what, newRig.log, refRig.log)
		}
		if ctrl.rr != ref.rr || ctrl.reqsSent != ref.reqsSent {
			t.Fatalf("%s: rr=%d sent=%d, want rr=%d sent=%d", what, ctrl.rr, ctrl.reqsSent, ref.rr, ref.reqsSent)
		}
		for l := 0; l < links; l++ {
			got, want := ringTags(&ctrl.parked[l]), ringTags(&ref.blockedq[l])
			if !slices.Equal(got, want) {
				t.Fatalf("%s: link %d parked %v, want %v", what, l, got, want)
			}
			if ctrl.armed[l] != (len(got) > 0) {
				t.Fatalf("%s: link %d armed=%v with %d parked", what, l, ctrl.armed[l], len(got))
			}
			if g, w := newRig.dirs[l].TokensAvailable(), refRig.dirs[l].TokensAvailable(); g != w {
				t.Fatalf("%s: link %d has %d tokens, want %d", what, l, g, w)
			}
		}
	}
}

func TestControllerParkOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRand(seed)
		// Sends outnumber releases over the first half, so requests pile
		// up behind full links; the second half only releases, draining
		// them through ever-shorter waves.
		script := make([]byte, 2+400)
		for i := range script {
			script[i] = byte(rng.Uint64())
			if i >= 2+300 {
				script[i] |= 3
			}
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { playParkScript(t, script) })
	}
}

func FuzzControllerPark(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		playParkScript(t, script)
	})
}

// TestSaturatedOneBankDrainsParkedRequests runs nine GUPS ports against
// one bank, the configuration that piles requests up behind full links,
// then stops them and drains: every parked request must have gone out
// and come back, and no waker may be left armed.
func TestSaturatedOneBankDrainsParkedRequests(t *testing.T) {
	r := newRig(t)
	mask, err := r.mapp.BanksMask(1)
	if err != nil {
		t.Fatal(err)
	}
	ports := make([]*GUPSPort, 9)
	for i := range ports {
		ports[i] = NewGUPSPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, i, GUPSConfig{
			Size: 128, Mask: mask, Seed: uint64(i + 1),
		})
		p := ports[i]
		r.eng.Schedule(0, func() { p.Start() })
	}
	peak, stopped := 0, false
	var watch func()
	watch = func() {
		n := 0
		for l := range r.ctrl.parked {
			n += r.ctrl.parked[l].Len()
		}
		peak = max(peak, n)
		if !stopped {
			r.eng.Schedule(100*sim.Nanosecond, watch)
		}
	}
	r.eng.Schedule(0, watch)
	r.eng.Run(30 * sim.Microsecond)
	for _, p := range ports {
		p.Stop()
	}
	stopped = true
	r.eng.Drain()
	if peak < 100 {
		t.Fatalf("at most %d requests parked; the run never saturated the links", peak)
	}
	for l := range r.ctrl.parked {
		if n := r.ctrl.parked[l].Len(); n != 0 {
			t.Errorf("link %d: %d requests still parked after drain", l, n)
		}
		if r.ctrl.armed[l] {
			t.Errorf("link %d: waker still armed after drain", l)
		}
	}
	if sent, recv := r.ctrl.RequestsSent(), r.ctrl.ResponsesReceived(); sent == 0 || sent != recv {
		t.Fatalf("requests sent %d, responses received %d", sent, recv)
	}
}

// BenchmarkControllerParkedRelease measures one release wave with ~500
// requests parked over two full links: each op returns one flit on
// alternating links, the woken wave sends one request and re-parks the
// rest, and the sent request re-enters the controller on delivery.
func BenchmarkControllerParkedRelease(b *testing.B) {
	const buf = 12
	rig := newParkRig(2, buf)
	ctrl := NewController(rig.eng, DefaultConfig(), rig)
	rig.deliver = ctrl.sendReq
	for i := 0; i < 2*buf+500; i++ {
		ctrl.sendReq(parkPacket(uint16(i), false))
	}
	op := func(i int) {
		rig.dirs[i&1].Release(1)
		rig.eng.Drain()
	}
	for i := 0; i < 1000; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
