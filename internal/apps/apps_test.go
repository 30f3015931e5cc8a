package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
)

func backends(n int) ([]string, []netproto.IPv4) {
	var names []string
	var addrs []netproto.IPv4
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("backend-%d", i))
		addrs = append(addrs, netproto.IPv4{172, 16, byte(i >> 8), byte(i)})
	}
	return names, addrs
}

func TestMaglevTableComplete(t *testing.T) {
	names, addrs := backends(7)
	m, err := NewMaglev(names, addrs, 4099)
	if err != nil {
		t.Fatal(err)
	}
	counts := m.TableCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4099 {
		t.Fatalf("table has %d entries", total)
	}
}

func TestMaglevBalance(t *testing.T) {
	// The Maglev paper's property: with M >> N, backends own table
	// shares within ~1-2% of each other.
	names, addrs := backends(10)
	m, _ := NewMaglev(names, addrs, 65537)
	counts := m.TableCounts()
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max-min)/float64(max) > 0.02 {
		t.Fatalf("imbalance %d..%d", min, max)
	}
}

func TestMaglevMinimalDisruption(t *testing.T) {
	// Removing one backend must only remap flows that pointed at it
	// (plus a small epsilon of churn inherent to the algorithm).
	names, addrs := backends(8)
	m1, _ := NewMaglev(names, addrs, 65537)
	m2, _ := NewMaglev(names[:7], addrs[:7], 65537)
	moved, shouldMove := 0, 0
	for i := 0; i < 20000; i++ {
		tuple := netproto.FiveTuple{
			SrcIP:   netproto.IPv4{10, 0, byte(i >> 8), byte(i)},
			DstIP:   netproto.IPv4{192, 168, 1, 1},
			SrcPort: uint16(i), DstPort: 80, Proto: 17,
		}
		b1, b2 := m1.Lookup(tuple), m2.Lookup(tuple)
		if b1 == 7 {
			shouldMove++
			continue
		}
		if b1 != b2 {
			moved++
		}
	}
	if shouldMove == 0 {
		t.Fatal("degenerate test: no flows on removed backend")
	}
	if float64(moved)/20000 > 0.10 {
		t.Fatalf("excess disruption: %d of 20000 surviving flows moved", moved)
	}
}

func TestMaglevLookupDeterministic(t *testing.T) {
	names, addrs := backends(4)
	m, _ := NewMaglev(names, addrs, 65537)
	tuple := netproto.FiveTuple{SrcPort: 1, DstPort: 2, Proto: 17}
	first := m.Lookup(tuple)
	for i := 0; i < 100; i++ {
		if m.Lookup(tuple) != first {
			t.Fatal("same flow mapped differently")
		}
	}
}

func TestMaglevForwardRewrites(t *testing.T) {
	names, addrs := backends(3)
	m, _ := NewMaglev(names, addrs, 4099)
	var clk hw.Clock
	frame := make([]byte, 128)
	n, _ := netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
		netproto.IPv4{10, 1, 1, 1}, netproto.IPv4{192, 168, 1, 1}, 5555, 80, []byte("x"))
	if !m.Forward(&clk, frame[:n]) {
		t.Fatal("forward refused valid frame")
	}
	p, err := netproto.ParseUDP(frame[:n])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range addrs {
		if p.DstIP == a {
			found = true
		}
	}
	if !found {
		t.Fatalf("dst %v not a backend", p.DstIP)
	}
	if err := netproto.VerifyIPv4Checksum(frame[:n]); err != nil {
		t.Fatal(err)
	}
	if clk.Cycles() == 0 {
		t.Fatal("forward charged nothing")
	}
	if m.Forward(&clk, []byte{1, 2, 3}) {
		t.Fatal("forward accepted garbage")
	}
}

func TestMaglevRejectsBadConfig(t *testing.T) {
	if _, err := NewMaglev(nil, nil, 0); err == nil {
		t.Fatal("empty backends accepted")
	}
	if _, err := NewMaglev([]string{"a"}, nil, 0); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestKVStoreSetGet(t *testing.T) {
	s, err := NewKVStore(1024, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var clk hw.Clock
	key := []byte("key00001")
	val := []byte("value001")
	if !s.Set(&clk, key, val) {
		t.Fatal("set failed")
	}
	got, okk := s.Get(&clk, key)
	if !okk || string(got) != string(val) {
		t.Fatalf("get = %q ok=%v", got, okk)
	}
	if _, okk := s.Get(&clk, []byte("missing!")); okk {
		t.Fatal("missing key found")
	}
	// Overwrite.
	if !s.Set(&clk, key, []byte("value002")) {
		t.Fatal("overwrite failed")
	}
	got, _ = s.Get(&clk, key)
	if string(got) != "value002" {
		t.Fatal("overwrite lost")
	}
	if s.Used() != 1 {
		t.Fatalf("used = %d", s.Used())
	}
}

func TestKVStoreCollisionProbing(t *testing.T) {
	// A tiny table forces linear probing chains.
	s, _ := NewKVStore(8, 8, 8)
	var clk hw.Clock
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("key%05d", i))
		if !s.Set(&clk, key, []byte("vvvvvvvv")) {
			t.Fatalf("set %d failed", i)
		}
	}
	// Full table rejects new keys but still finds all existing ones.
	if s.Set(&clk, []byte("overflow"), []byte("vvvvvvvv")) {
		t.Fatal("overfull set succeeded")
	}
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("key%05d", i))
		if _, okk := s.Get(&clk, key); !okk {
			t.Fatalf("key %d lost", i)
		}
	}
}

func TestKVStoreWrongSizesRejected(t *testing.T) {
	s, _ := NewKVStore(64, 8, 8)
	var clk hw.Clock
	if s.Set(&clk, []byte("short"), []byte("12345678")) {
		t.Fatal("short key accepted")
	}
	if _, okk := s.Get(&clk, []byte("longer-than-eight")); okk {
		t.Fatal("long key accepted")
	}
}

func TestKVStoreServeWire(t *testing.T) {
	s, _ := NewKVStore(1024, 8, 8)
	var clk hw.Clock
	frame := make([]byte, 256)
	var req [64]byte
	n, _ := BuildKVRequest(req[:], KVSet, []byte("key00042"), []byte("hello!!!"))
	fn, _ := netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
		netproto.IPv4{10, 0, 0, 1}, netproto.IPv4{10, 0, 0, 2}, 7, 11211, req[:n])
	if !s.Serve(&clk, frame[:fn]) {
		t.Fatal("set request refused")
	}
	p, _ := netproto.ParseUDP(frame[:fn])
	if p.Payload[0] != 1 {
		t.Fatal("set reply not OK")
	}
	// GET round trip.
	n, _ = BuildKVRequest(req[:], KVGet, []byte("key00042"), nil)
	fn, _ = netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
		netproto.IPv4{10, 0, 0, 1}, netproto.IPv4{10, 0, 0, 2}, 7, 11211, req[:n])
	if !s.Serve(&clk, frame[:fn]) {
		t.Fatal("get request refused")
	}
	p, _ = netproto.ParseUDP(frame[:fn])
	if p.Payload[0] != 1 || string(p.Payload[1:9]) != "hello!!!" {
		t.Fatalf("get reply = %v", p.Payload[:9])
	}
	if s.Hits != 1 || s.Sets != 1 {
		t.Fatalf("stats hits=%d sets=%d", s.Hits, s.Sets)
	}
}

func TestKVStoreBigTableChargesMore(t *testing.T) {
	small, _ := NewKVStore(1024, 8, 8)
	big, _ := NewKVStore(8_000_000, 8, 8)
	var cs, cb hw.Clock
	key := []byte("key00001")
	small.Get(&cs, key)
	big.Get(&cb, key)
	if cb.Cycles() <= cs.Cycles() {
		t.Fatal("big table not more expensive per probe")
	}
}

func TestHttpdServe(t *testing.T) {
	h := NewHttpd(map[string][]byte{"/index.html": []byte("<html>hello</html>")})
	var clk hw.Clock
	frame := make([]byte, 512)
	req := []byte("GET /index.html HTTP/1.1\r\nHost: atmo\r\n\r\n")
	n, _ := netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
		netproto.IPv4{10, 0, 0, 9}, netproto.IPv4{10, 0, 0, 1}, 40000, 80, req)
	if !h.Serve(&clk, frame[:n]) {
		t.Fatal("request refused")
	}
	p, _ := netproto.ParseUDP(frame[:n])
	if string(p.Payload[:15]) != "HTTP/1.1 200 OK" {
		t.Fatalf("response %q", p.Payload[:15])
	}
	if h.Served != 1 || h.Connections() != 1 {
		t.Fatalf("served=%d conns=%d", h.Served, h.Connections())
	}
	// 404 path.
	n, _ = netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
		netproto.IPv4{10, 0, 0, 9}, netproto.IPv4{10, 0, 0, 1}, 40000, 80,
		[]byte("GET /missing HTTP/1.1\r\n\r\n"))
	if !h.Serve(&clk, frame[:n]) {
		t.Fatal("404 request refused")
	}
	p, _ = netproto.ParseUDP(frame[:n])
	if string(p.Payload[9:12]) != "404" {
		t.Fatalf("response %q", p.Payload[:20])
	}
	if h.NotFound != 1 {
		t.Fatal("404 not counted")
	}
	// Garbage dropped.
	if h.Serve(&clk, []byte{1, 2}) {
		t.Fatal("garbage served")
	}
}

func TestHttpdTracksConnections(t *testing.T) {
	h := NewHttpd(map[string][]byte{"/": []byte("x")})
	var clk hw.Clock
	frame := make([]byte, 256)
	for c := 0; c < 20; c++ {
		req := []byte("GET / HTTP/1.1\r\n\r\n")
		n, _ := netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
			netproto.IPv4{10, 0, 0, 9}, netproto.IPv4{10, 0, 0, 1}, uint16(50000+c), 80, req)
		h.Serve(&clk, frame[:n])
	}
	if h.Connections() != 20 {
		t.Fatalf("connections = %d", h.Connections())
	}
}

func TestKVRequestEncoding(t *testing.T) {
	var buf [64]byte
	n, err := BuildKVRequest(buf[:], KVSet, []byte("kk"), []byte("vvv"))
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != KVSet || binary.LittleEndian.Uint16(buf[1:3]) != 2 {
		t.Fatal("header wrong")
	}
	if n != 3+2+2+3 {
		t.Fatalf("length %d", n)
	}
	if _, err := BuildKVRequest(buf[:4], KVSet, []byte("kk"), []byte("vvv")); err == nil {
		t.Fatal("overflow accepted")
	}
}

// TestKVServePayload pins the payload-level entry point the cluster's
// traced backends use: identical semantics and cycle charge to Serve,
// minus the UDP parse.
func TestKVServePayload(t *testing.T) {
	s, err := NewKVStore(64, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	clk := &hw.Clock{}
	key := []byte("k0000000")
	val := []byte("v0000000")

	var buf [64]byte
	n, err := BuildKVRequest(buf[:], KVSet, key, val)
	if err != nil {
		t.Fatal(err)
	}
	before := clk.Cycles()
	if !s.ServePayload(clk, buf[:n]) {
		t.Fatal("SET via ServePayload failed")
	}
	if buf[0] != 1 {
		t.Fatalf("SET status = %d", buf[0])
	}
	if clk.Cycles()-before < ServeCycles {
		t.Fatal("ServePayload did not charge the protocol overhead")
	}

	n, err = BuildKVRequest(buf[:], KVGet, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.ServePayload(clk, buf[:n]) {
		t.Fatal("GET via ServePayload failed")
	}
	if buf[0] != 1 || string(buf[1:9]) != string(val) {
		t.Fatalf("GET reply = % x", buf[:9])
	}

	// Truncated payloads are rejected, not served.
	if s.ServePayload(clk, buf[:2]) {
		t.Fatal("truncated payload was served")
	}
}

// serveStream serves n seeded GET/SET frames over a 64-key space and
// returns every reply frame, concatenated, and the cycles charged.
func serveStream(t *testing.T, s *KVStore, seed uint64, n int) ([]byte, uint64) {
	t.Helper()
	r := hw.NewRand(seed)
	var clk hw.Clock
	var out []byte
	frame := make([]byte, 256)
	var req [64]byte
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%05d", r.Intn(64)))
		op, val := byte(KVGet), []byte(nil)
		if r.Intn(3) == 0 {
			op, val = KVSet, []byte(fmt.Sprintf("val%05d", r.Intn(100000)))
		}
		rn, err := BuildKVRequest(req[:], op, key, val)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := netproto.BuildUDP(frame, netproto.MAC{1}, netproto.MAC{2},
			netproto.IPv4{10, 0, 0, 1}, netproto.IPv4{10, 0, 0, 2}, 7, 11211, req[:rn])
		if err != nil {
			t.Fatal(err)
		}
		if !s.Serve(&clk, frame[:fn]) {
			t.Fatalf("request %d refused", i)
		}
		out = append(out, frame[:fn]...)
	}
	return out, clk.Cycles()
}

// TestKVStoreResetMatchesFresh: a store that has served traffic and is
// then Reset answers a seeded request stream byte for byte like a
// freshly built store, with the same cycle charges and counters.
func TestKVStoreResetMatchesFresh(t *testing.T) {
	used, err := NewKVStore(256, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	serveStream(t, used, 1, 400)
	used.Reset()
	fresh, err := NewKVStore(256, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, gotCycles := serveStream(t, used, 2, 400)
	want, wantCycles := serveStream(t, fresh, 2, 400)
	if !bytes.Equal(got, want) || gotCycles != wantCycles {
		t.Fatalf("reset store replies differ from a fresh store's (cycles %d vs %d)", gotCycles, wantCycles)
	}
	if used.Used() != fresh.Used() || used.Gets != fresh.Gets || used.Sets != fresh.Sets ||
		used.Hits != fresh.Hits || used.Misses != fresh.Misses {
		t.Fatalf("reset store counters %d/%d/%d/%d/%d, fresh %d/%d/%d/%d/%d",
			used.Used(), used.Gets, used.Sets, used.Hits, used.Misses,
			fresh.Used(), fresh.Gets, fresh.Sets, fresh.Hits, fresh.Misses)
	}
	if fresh.Hits == 0 || fresh.Misses == 0 {
		t.Fatal("request stream exercised no hit or no miss")
	}
}
