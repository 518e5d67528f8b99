package edgenet

import (
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/modular"
)

// subClose asserts a fetched sub-model's parameters are within the wire
// codec's error budget of the cloud's own extraction.
func subClose(t *testing.T, cloud *modular.Model, mapping [][]int, got []float32, bound float64) {
	t.Helper()
	want := cloud.Extract(mapping).BackboneVector()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > bound {
			t.Fatalf("weight %d error %v exceeds %v", i, want[i]-got[i], bound)
		}
	}
}

func TestV2HandshakeAndFetchPush(t *testing.T) {
	cloud := buildModel(40)
	skeleton := buildModel(40)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	if cl.Proto() != ProtoV2 {
		t.Fatalf("negotiated proto %d, want %d", cl.Proto(), ProtoV2)
	}
	imp := uniformImportance(cloud)
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	subClose(t, cloud, sub.Mapping, sub.BackboneVector(), 0.05)
	st := srv.StatsSnapshot()
	if st.WireFull != 1 || st.WireDelta != 0 {
		t.Fatalf("first fetch should be a full payload: %+v", st)
	}

	// Push goes back delta-coded against the fetch reconstruction.
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	st = srv.StatsSnapshot()
	if st.WireDelta != 1 {
		t.Fatalf("push should be delta-coded: %+v", st)
	}
	if st.UpdatesReceived != 1 || st.Aggregations != 1 {
		t.Fatalf("update not applied: %+v", st)
	}

	// A second fetch with the same importance (same mapping) delta-codes the
	// downlink too.
	if _, err := cl.FetchSubModel(imp, looseBudget()); err != nil {
		t.Fatal(err)
	}
	st = srv.StatsSnapshot()
	if st.WireDelta != 2 {
		t.Fatalf("second fetch should be delta-coded: %+v", st)
	}
	if st.WireFallbacks != 0 {
		t.Fatalf("no fallback expected: %+v", st)
	}
}

func TestV2TrafficBeatsV1Plain(t *testing.T) {
	imp := uniformImportance(buildModel(41))
	traffic := func(maxProto int) int64 {
		cloud := buildModel(41)
		skeleton := buildModel(41)
		srv := NewServer(cloud, 1)
		cl := pipePair(t, srv, skeleton)
		cl.MaxProto = maxProto
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		// Two rounds so v2's delta coding participates.
		for round := 0; round < 2; round++ {
			sub, err := cl.FetchSubModel(imp, looseBudget())
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.PushUpdate(sub, imp, 1); err != nil {
				t.Fatal(err)
			}
		}
		in, out := cl.Traffic()
		return in + out
	}
	plain := traffic(ProtoV1)
	v2 := traffic(ProtoV2)
	if v2*2 >= plain {
		t.Fatalf("v2 traffic %d not ≥2× below v1 plain %d", v2, plain)
	}
}

func TestMixedVersionInterop(t *testing.T) {
	// v1 client against a v2 server: the client never offers v2, so the
	// exchange is plain v1 — bit-exact parameters.
	t.Run("v1 client, v2 server", func(t *testing.T) {
		cloud := buildModel(42)
		skeleton := buildModel(42)
		srv := NewServer(cloud, 1)
		cl := pipePair(t, srv, skeleton)
		cl.MaxProto = ProtoV1
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		if cl.Proto() != ProtoV1 {
			t.Fatalf("negotiated %d, want v1", cl.Proto())
		}
		imp := uniformImportance(cloud)
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		subClose(t, cloud, sub.Mapping, sub.BackboneVector(), 0) // v1 plain is exact
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		st := srv.StatsSnapshot()
		if st.WireFull != 0 || st.WireDelta != 0 {
			t.Fatalf("v1 exchange must not produce v2 payloads: %+v", st)
		}
	})

	// v2 client against a v1 server: the server caps the handshake at v1 and
	// the client must never emit chunk frames.
	t.Run("v2 client, v1 server", func(t *testing.T) {
		cloud := buildModel(43)
		skeleton := buildModel(43)
		srv := NewServer(cloud, 1)
		srv.MaxProto = ProtoV1
		cl := pipePair(t, srv, skeleton)
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		if cl.Proto() != ProtoV1 {
			t.Fatalf("negotiated %d, want v1", cl.Proto())
		}
		imp := uniformImportance(cloud)
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		subClose(t, cloud, sub.Mapping, sub.BackboneVector(), 0)
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		if st := srv.StatsSnapshot(); st.UpdatesReceived != 1 {
			t.Fatalf("v1-capped exchange broke: %+v", st)
		}
	})
}

func TestV2PushFallbackOnLostServerReference(t *testing.T) {
	cloud := buildModel(44)
	skeleton := buildModel(44)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, skeleton)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	imp := uniformImportance(cloud)
	sub, err := cl.FetchSubModel(imp, looseBudget())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a server restart: the delta-reference cache is gone but the
	// client still holds its version.
	srv.mu.Lock()
	srv.wireRefs = map[int]*WireRef{}
	srv.mu.Unlock()

	fallbacksBefore := clientMetrics.wireFallbacks.Value()
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatalf("push did not recover from a lost reference: %v", err)
	}
	st := srv.StatsSnapshot()
	if st.WireFallbacks != 1 {
		t.Fatalf("WireFallbacks = %d, want 1", st.WireFallbacks)
	}
	if st.UpdatesReceived != 1 {
		t.Fatalf("update not applied after fallback: %+v", st)
	}
	if got := clientMetrics.wireFallbacks.Value() - fallbacksBefore; got != 1 {
		t.Fatalf("client wire_fallback counter moved by %v, want 1", got)
	}
	// The re-sent full payload reused the same Seq, so a later fresh push
	// still lands.
	if err := cl.PushUpdate(sub, imp, 1); err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.UpdatesReceived != 2 {
		t.Fatalf("follow-up push broken: %+v", st)
	}
}

func TestV2DeltaSparsePushReducesTraffic(t *testing.T) {
	imp := uniformImportance(buildModel(45))
	pushBytes := func(topK float64) int64 {
		cloud := buildModel(45)
		skeleton := buildModel(45)
		srv := NewServer(cloud, 1)
		cl := pipePair(t, srv, skeleton)
		cl.WireOpts.TopK = topK
		if err := cl.Hello(); err != nil {
			t.Fatal(err)
		}
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		_, before := cl.Traffic()
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
		_, after := cl.Traffic()
		return after - before
	}
	dense := pushBytes(0)
	sparse := pushBytes(0.25)
	if sparse >= dense {
		t.Fatalf("top-k push %d B not below dense %d B", sparse, dense)
	}
}

// Satellite regression: an RPC the server rejects still moved bytes and took
// time; the client histograms must observe it. The old code returned early on
// the application-error path and dropped the sample.
func TestClientMetricsObservedOnAppError(t *testing.T) {
	cloud := buildModel(46)
	srv := NewServer(cloud, 1)
	cl := pipePair(t, srv, cloud)
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	secBefore := clientMetrics.rpcSeconds[KindGetSubModel].Count()
	reqBefore := clientMetrics.reqBytes[KindGetSubModel].Count()
	rspBefore := clientMetrics.rspBytes[KindGetSubModel].Count()
	// Importance with the wrong layer count is an application error: the
	// server replies OK=false over a healthy transport.
	_, err := cl.FetchSubModel([][]float64{{1}}, looseBudget())
	if err == nil {
		t.Fatal("malformed importance accepted")
	}
	if d := clientMetrics.rpcSeconds[KindGetSubModel].Count() - secBefore; d != 1 {
		t.Fatalf("rpcSeconds observed %d samples on app error, want 1", d)
	}
	if d := clientMetrics.reqBytes[KindGetSubModel].Count() - reqBefore; d != 1 {
		t.Fatalf("reqBytes observed %d samples on app error, want 1", d)
	}
	if d := clientMetrics.rspBytes[KindGetSubModel].Count() - rspBefore; d != 1 {
		t.Fatalf("rspBytes observed %d samples on app error, want 1", d)
	}
}

// brokenPipe always fails writes — every call attempt dies on the transport.
type brokenPipe struct{}

var errBroken = errors.New("injected write failure")

func (brokenPipe) Read(p []byte) (int, error)  { return 0, errBroken }
func (brokenPipe) Write(p []byte) (int, error) { return 0, errBroken }
func (brokenPipe) Close() error                { return nil }

// Satellite regression: call must not scribble retry state into the caller's
// Request. The old code stamped req.Attempt in place, so a retried call
// mutated a struct the caller still owns.
func TestCallDoesNotMutateCallerRequest(t *testing.T) {
	cl := &EdgeClient{DeviceID: 1, Skeleton: buildModel(47)}
	cl.Policy = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Seed: 1}
	cl.Redial = func() (io.ReadWriteCloser, error) { return brokenPipe{}, nil }
	cl.attach(brokenPipe{})
	req := &Request{Kind: KindStats, DeviceID: 1}
	if _, err := cl.call(req); err == nil {
		t.Fatal("call over a broken transport should fail")
	}
	if req.Attempt != 0 {
		t.Fatalf("caller's request mutated: Attempt = %d", req.Attempt)
	}
	if cl.RetryStats().Retries == 0 {
		t.Fatal("test did not exercise the retry path")
	}
}

// V2 chunk streams must survive the fault injector: drops and resets corrupt
// or kill the stream mid-payload, and the retry machinery replays the whole
// exchange on a fresh connection.
func TestV2ChunkStreamOverFaultyLink(t *testing.T) {
	cloud := buildModel(48)
	srv := NewServer(cloud, 1)
	srv.ReadTimeout = 500 * time.Millisecond
	srv.WriteTimeout = 500 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	skeleton := buildModel(48)
	cl, err := DialFaulty(addr, 1, skeleton, FaultConfig{Seed: 13, Drop: 0.12, Delay: 200 * time.Microsecond, Reset: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Policy = RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, CallTimeout: 300 * time.Millisecond, Seed: 2}
	cl.WireOpts.TopK = 0.25

	if err := cl.Hello(); err != nil {
		t.Fatalf("hello over faulty link: %v", err)
	}
	if cl.Proto() != ProtoV2 {
		t.Fatalf("proto %d, want v2", cl.Proto())
	}
	imp := uniformImportance(skeleton)
	for round := 0; round < 3; round++ {
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatalf("round %d fetch over faulty link: %v", round, err)
		}
		subClose(t, cloud, sub.Mapping, sub.BackboneVector(), 0.1)
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatalf("round %d push over faulty link: %v", round, err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesReceived != 3 {
		t.Fatalf("updates applied %d times, want 3: %+v", st.UpdatesReceived, st)
	}
	if st.WireFull+st.WireDelta == 0 {
		t.Fatal("no v2 payloads recorded over the faulty link")
	}
}

// allocDuring reports the bytes fn allocated, process-wide.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A header may announce up to maxWireChunks frames. Sizing the frame slice
// from it let one hostile envelope make the receiver allocate ~75 MB before
// any frame arrived; the slice must grow with the frames instead.
func TestServerRecvChunksBoundsPrealloc(t *testing.T) {
	a, b := net.Pipe()
	_ = b.Close() // the announced frames never come
	codec := NewCodec(a)
	var err error
	grew := allocDuring(func() {
		_, err = (&Server{}).recvChunks(codec, nil, &WireHeader{Chunks: maxWireChunks})
	})
	if err == nil {
		t.Fatal("recvChunks over a closed connection returned no error")
	}
	if grew >= 1<<20 {
		t.Fatalf("recvChunks allocated %d bytes for an unfulfilled header", grew)
	}
}

func TestClientRecvChunksBoundsPrealloc(t *testing.T) {
	a, b := net.Pipe()
	peerDone := make(chan struct{})
	defer func() { <-peerDone }()
	go func() {
		defer close(peerDone)
		// A peer that answers with a maximal announcement, then hangs up.
		codec := NewCodec(a)
		var req Request
		if codec.Recv(&req) == nil {
			_ = codec.Send(&Response{OK: true, Payload: &WireHeader{Chunks: maxWireChunks}}) // the client's error is what the test checks
		}
		_ = a.Close() // net.Pipe close cannot fail
	}()
	cl := &EdgeClient{DeviceID: 1}
	cl.attach(b)
	var err error
	grew := allocDuring(func() {
		_, _, err = cl.exchange(&Request{Kind: KindGetSubModel, DeviceID: 1, Proto: ProtoV2}, nil, 0)
	})
	if err == nil {
		t.Fatal("exchange over a closed connection returned no error")
	}
	if grew >= 1<<20 {
		t.Fatalf("exchange allocated %d bytes for an unfulfilled header", grew)
	}
}
