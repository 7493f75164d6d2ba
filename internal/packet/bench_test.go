package packet

import "testing"

// Codec and pool micro-benchmarks; run with
// go test -bench=. -benchmem ./internal/packet/...

// BenchmarkEncode measures serializing a max-size write request (9
// flits) into wire words. The words slice is the codec's one inherent
// allocation; allocs/op makes any regression beyond it visible.
func BenchmarkEncode(b *testing.B) {
	p := &Packet{Cmd: CmdWrite, Tag: 42, Addr: 0xABCDE0, Size: 128}
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i)
	}
	tail := Tail{RTC: 3, SEQ: 5, FRP: 17, RRP: 99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(p, tail, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures parsing and CRC-checking the same packet.
func BenchmarkDecode(b *testing.B) {
	p := &Packet{Cmd: CmdWrite, Tag: 42, Addr: 0xABCDE0, Size: 128}
	data := make([]byte, 128)
	words, err := Encode(p, Tail{}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Decode(words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketPool measures the free-list round trip the simulator
// performs per transaction: build a request and a response packet,
// release both. Steady state is 0 allocs/op.
func BenchmarkPacketPool(b *testing.B) {
	tr := &Transaction{Write: false, Addr: 0x1000, Size: 64, Tag: 7}
	req, resp := tr.RequestPacket(tr.Tag), tr.ResponsePacket(tr.Tag) // warm-up: fill the free list
	PutPacket(req)
	PutPacket(resp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := tr.RequestPacket(tr.Tag)
		resp := tr.ResponsePacket(tr.Tag)
		PutPacket(req)
		PutPacket(resp)
	}
}

// BenchmarkTransactionPool measures the per-access transaction
// acquire/release cycle the ports perform.
func BenchmarkTransactionPool(b *testing.B) {
	PutTransaction(GetTransaction()) // warm-up: fill the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := GetTransaction()
		tr.Addr = uint64(i)
		tr.Size = 64
		PutTransaction(tr)
	}
}
