package serve

// End-to-end RPC tests over loopback TCP: concurrent clients issuing
// mixed queries against one hosted Session, results identical to
// in-process serving.

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aap/internal/algo/cf"
	"aap/internal/algo/sssp"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/transport"
)

// TestRPCServesMixedQueries: two clients over one serving plane, SSSP /
// CC / PageRank / Stats, all answers matching dedicated engine runs.
func TestRPCServesMixedQueries(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 37)
	p := buildPartition(t, g, 2)
	srv := New(p, WithBatchWindow(5*time.Millisecond), WithBatchMax(4))
	rs, err := ListenRPC(srv, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	c1, err := DialRPC(rs.Addr(), 101, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialRPC(rs.Addr(), 102, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	sources := []graph.VertexID{0, 1, 2, 3, 4, 5}
	want := make([][]float64, len(sources))
	for i, src := range sources {
		res, err := core.Run(p, sssp.Job(src), core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Values
	}

	var wg sync.WaitGroup
	errs := make([]error, len(sources)+2)
	got := make([][]float64, len(sources))
	metas := make([]QueryMeta, len(sources))
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := c1
			if i%2 == 1 {
				c = c2
			}
			got[i], metas[i], errs[i] = c.SSSP(src)
		}()
	}
	var labels []int64
	var ranks []float64
	wg.Add(2)
	go func() { defer wg.Done(); labels, _, errs[len(sources)] = c1.CC() }()
	go func() { defer wg.Done(); ranks, _, errs[len(sources)+1] = c2.PageRank() }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i := range sources {
		if metas[i].BatchSize <= 0 || metas[i].Seconds <= 0 {
			t.Fatalf("source %d: meta not stamped: %+v", sources[i], metas[i])
		}
		for v := range want[i] {
			if math.Float64bits(got[i][v]) != math.Float64bits(want[i][v]) {
				t.Fatalf("rpc sssp src=%d vertex %d: %v != %v", sources[i], v, got[i][v], want[i][v])
			}
		}
	}
	if len(labels) != g.NumVertices() || len(ranks) != g.NumVertices() {
		t.Fatalf("cc/pagerank shapes: %d, %d", len(labels), len(ranks))
	}

	ids, err := c1.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != g.NumVertices() {
		t.Fatalf("ids length %d, want %d", len(ids), g.NumVertices())
	}
	for v, id := range ids {
		if id != int64(p.G.IDOf(int32(v))) {
			t.Fatalf("ids[%d] = %d, want %d", v, id, p.G.IDOf(int32(v)))
		}
	}

	st, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Completed counts engine runs: one per distinct SSSP source, and
	// one each for CC and PageRank.
	if st.BatchedQueries != int64(len(sources)) || st.Completed != int64(len(sources))+2 || st.Active != 0 {
		t.Fatalf("server stats: %+v", st)
	}
}

// TestRPCRecommendAndErrors: the CF path over the wire, plus error
// propagation for unconfigured and malformed requests.
func TestRPCRecommendAndErrors(t *testing.T) {
	const users, products = 80, 20
	r := gen.Bipartite(users, products, 6, 4, 1.0, 3)
	p := buildPartition(t, r.G, 2)
	srv := New(p, WithCF(cf.Config{Users: users, Products: products, Rank: 4, Epochs: 6, Seed: 9}))
	rs, err := ListenRPC(srv, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	c, err := DialRPC(rs.Addr(), 7, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recs, meta, err := c.Recommend(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d recs", len(recs))
	}
	local, _, err := srv.Recommend(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i] != local[i] {
			t.Fatalf("rpc recs diverge from local: %v vs %v", recs, local)
		}
	}
	if meta.Seconds < 0 {
		t.Fatalf("meta: %+v", meta)
	}

	if _, _, err := c.Recommend(-5, 3); err == nil || !strings.Contains(err.Error(), "user") {
		t.Fatalf("bad-user error not propagated: %v", err)
	}
}

// TestClientCallFailsFastWithoutServer: a call in flight when the client
// closes, or when the serving plane dies, returns an error at once
// instead of sleeping out its timeout (a minute here; at the parent
// commit both slept it out).
func TestClientCallFailsFastWithoutServer(t *testing.T) {
	// A serving plane that takes requests and never answers.
	mute := func() *transport.Plane {
		p, err := transport.Listen(transport.Config{
			ListenAddr: "127.0.0.1:0",
			OnFrame:    func(transport.Frame) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		name string
		end  func(srv *transport.Plane, cl *Client)
	}{
		{"client closes", func(_ *transport.Plane, cl *Client) { cl.Close() }},
		{"server dies", func(srv *transport.Plane, _ *Client) { srv.Close() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := mute()
			defer srv.Close()
			cl, err := DialRPC(srv.Addr(), 5, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			done := make(chan error, 1)
			t0 := time.Now()
			go func() { _, _, err := cl.SSSP(0); done <- err }()
			time.Sleep(50 * time.Millisecond) // let the request go out
			c.end(srv, cl)
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("unanswered call returned no error")
				}
				t.Logf("failed after %v: %v", time.Since(t0), err)
			case <-time.After(15 * time.Second):
				t.Fatal("call still blocked 15s after its peer went away")
			}
		})
	}
}

// TestRecommendReplyCountLiesHigh: the record count of a Recommend reply
// is the peer's word. A reply claiming 2³²−1 records over 16 bytes of
// them must come back as the reader's error, having allocated for what
// the reply holds — at the parent commit the client asked for 64 GiB.
func TestRecommendReplyCountLiesHigh(t *testing.T) {
	liar, err := transport.Listen(transport.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer liar.Close()
	liar.Serve(serverEndpoint, 1, 1, func(transport.Frame) ([]byte, error) {
		out := appendMeta(nil, 0.5, &core.RunStats{})
		out = codec.AppendUint32(out, math.MaxUint32)
		return codec.AppendFloat64(codec.AppendInt64(out, 7), 0.25), nil
	})
	cl, err := DialRPC(liar.Addr(), 5, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, _, err := cl.Recommend(1, 3)
	runtime.ReadMemStats(&after)
	if err == nil || recs != nil {
		t.Fatalf("got %d records, err %v; want the reader's truncation error", len(recs), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a %d-byte reply allocated %d bytes", 40+4+16, grew)
	}
}

// TestUnknownSSSPSourceFailsClosed: a source the graph does not have is
// refused before admission — no queue slot, no engine run, not counted as
// shed — and reaches an RPC client as the call's error. At the parent
// commit it ran, and answered +Inf for every vertex.
func TestUnknownSSSPSourceFailsClosed(t *testing.T) {
	p := buildPartition(t, gen.PowerLaw(200, 4, 2.1, true, 3), 2)
	srv := New(p, WithBatchWindow(50*time.Millisecond))
	rs, err := ListenRPC(srv, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := DialRPC(rs.Addr(), 9, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const nobody = graph.VertexID(999999999)
	before := srv.Stats()
	if dist, _, err := srv.SSSP(nobody); err == nil || dist != nil || !strings.Contains(err.Error(), "999999999") {
		t.Fatalf("Server.SSSP: got %d distances, err %v; want an error naming the id", len(dist), err)
	}
	var refused transport.RemoteError
	if dist, _, err := cl.SSSP(nobody); !errors.As(err, &refused) || dist != nil {
		t.Fatalf("Client.SSSP: got %d distances, err %v; want the Server's refusal as a RemoteError", len(dist), err)
	}
	after := srv.Stats()
	if after.QueuedNow != 0 || after.Rejected != before.Rejected || after.Batches != before.Batches || after.Admitted != before.Admitted {
		t.Fatalf("the refused source touched the scheduler: before %+v, after %+v", before, after)
	}
	if st, err := cl.Stats(); err != nil || st.QueuedNow != 0 { // and the server still answers
		t.Fatalf("stats after the refusals: %+v, %v", st, err)
	}
	if _, _, err := cl.SSSP(0); err != nil {
		t.Fatalf("a known source after the refusals: %v", err)
	}
}
