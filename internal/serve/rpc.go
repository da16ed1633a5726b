package serve

// The serving RPC plane: a Server hosted behind the internal/transport
// TCP message plane, on the same call path as the engine's coordinator
// tokens and remote-worker protocol (transport.Plane.Call / Reply).
//
// Topology: the server plane listens and serves endpoint 0. Each client
// makes a dial-only plane with a unique positive id, serving endpoint
// id over link id, routing endpoint 0 to the server. A query is one
// Call — request [op uint32][args...], reply [QueryMeta][result], or
// the Server's error as the call's error — and the plane pairs replies
// with calls by id, so one client may issue concurrent calls over its
// single link.
//
// OnFrame runs on transport reader goroutines and must never send
// synchronously, so the server only enqueues requests there and a
// worker pool answers them.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/transport"
)

// RPC operation codes.
const (
	opSSSP uint32 = iota + 1
	opCC
	opPageRank
	opRecommend
	opStats
	opIDs
)

// serverEndpoint is the endpoint id the serving plane answers on.
const serverEndpoint int32 = 0

// QueryMeta is the per-query serving metadata shipped back with every
// RPC response (the RunStats serving fields plus wall latency).
type QueryMeta struct {
	Seconds          float64
	QueueWaitSeconds float64
	BatchSize        int
	ArenaBytes       int64
	ScannedEdges     int64
}

func appendMeta(dst []byte, seconds float64, st *core.RunStats) []byte {
	dst = codec.AppendFloat64(dst, seconds)
	dst = codec.AppendFloat64(dst, st.QueueWaitSeconds)
	dst = codec.AppendInt64(dst, int64(st.BatchSize))
	dst = codec.AppendInt64(dst, st.ArenaBytes)
	return codec.AppendInt64(dst, st.ScannedEdges)
}

func readMeta(r *codec.Reader) QueryMeta {
	return QueryMeta{
		Seconds:          r.Float64(),
		QueueWaitSeconds: r.Float64(),
		BatchSize:        int(r.Int64()),
		ArenaBytes:       r.Int64(),
		ScannedEdges:     r.Int64(),
	}
}

// RPCServer hosts a Server behind a listening transport plane.
type RPCServer struct {
	srv   *Server
	plane *transport.Plane
	reqs  chan transport.Frame
	done  chan struct{}
	wg    sync.WaitGroup
}

// ListenRPC exposes srv on addr ("127.0.0.1:0" for an ephemeral port).
// workers bounds concurrent request handling ahead of the Server's own
// admission control; <= 0 defaults to the server's in-flight cap plus
// its queue depth, so the transport pool is never what sheds load.
func ListenRPC(srv *Server, addr string, workers int) (*RPCServer, error) {
	if workers <= 0 {
		workers = srv.cfg.maxInflight + srv.cfg.queueDepth
	}
	rs := &RPCServer{
		srv:  srv,
		reqs: make(chan transport.Frame, workers),
		done: make(chan struct{}),
	}
	plane, err := transport.Listen(transport.Config{
		ListenAddr: addr,
		OnFrame: func(f transport.Frame) {
			if f.Kind != transport.KindCall {
				return
			}
			select {
			case rs.reqs <- f:
			case <-rs.done:
			}
		},
	})
	if err != nil {
		return nil, err
	}
	rs.plane = plane
	for i := 0; i < workers; i++ {
		rs.wg.Add(1)
		go rs.worker()
	}
	return rs, nil
}

// Addr is the plane's bound listen address.
func (rs *RPCServer) Addr() string { return rs.plane.Addr() }

// Close stops the workers and tears down the transport plane.
func (rs *RPCServer) Close() error {
	close(rs.done)
	err := rs.plane.Close()
	rs.wg.Wait()
	return err
}

func (rs *RPCServer) worker() {
	defer rs.wg.Done()
	for {
		select {
		case <-rs.done:
			return
		case f := <-rs.reqs:
			resp, err := rs.handle(f.Payload)
			// A send failure means the client link died: the response is
			// undeliverable, and the client's call has failed with it.
			_ = rs.plane.Reply(f, resp, err)
		}
	}
}

// handle decodes one request and runs it through the scheduler.
func (rs *RPCServer) handle(payload []byte) ([]byte, error) {
	r := codec.NewReader(payload)
	op := r.Uint32()
	if r.Err() != nil {
		return nil, fmt.Errorf("serve: bad request frame: %w", r.Err())
	}
	t0 := time.Now()
	switch op {
	case opSSSP:
		src := graph.VertexID(r.Int64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		dist, st, err := rs.srv.SSSP(src)
		if err != nil {
			return nil, err
		}
		out := appendMeta(nil, time.Since(t0).Seconds(), &st)
		return codec.AppendFloat64s(out, dist), nil
	case opCC:
		labels, st, err := rs.srv.CC()
		if err != nil {
			return nil, err
		}
		out := appendMeta(nil, time.Since(t0).Seconds(), &st)
		return codec.AppendInt64s(out, labels), nil
	case opPageRank:
		ranks, st, err := rs.srv.PageRank()
		if err != nil {
			return nil, err
		}
		out := appendMeta(nil, time.Since(t0).Seconds(), &st)
		return codec.AppendFloat64s(out, ranks), nil
	case opRecommend:
		user := int(r.Int64())
		k := int(r.Int64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		recs, st, err := rs.srv.Recommend(user, k)
		if err != nil {
			return nil, err
		}
		out := appendMeta(nil, time.Since(t0).Seconds(), &st)
		out = codec.AppendUint32(out, uint32(len(recs)))
		for _, rec := range recs {
			out = codec.AppendInt64(out, int64(rec.Product))
			out = codec.AppendFloat64(out, rec.Score)
		}
		return out, nil
	case opStats:
		st := rs.srv.Stats()
		out := codec.AppendInt64(nil, st.Admitted)
		out = codec.AppendInt64(out, st.Completed)
		out = codec.AppendInt64(out, st.Failed)
		out = codec.AppendInt64(out, st.Active)
		out = codec.AppendFloat64(out, st.BusySeconds)
		out = codec.AppendFloat64(out, st.UpSeconds)
		out = codec.AppendFloat64(out, st.QPS)
		out = codec.AppendInt64(out, st.Rejected)
		out = codec.AppendInt64(out, st.Batches)
		out = codec.AppendInt64(out, st.BatchedQueries)
		out = codec.AppendInt64(out, st.MaxBatch)
		out = codec.AppendInt64(out, st.QueuedNow)
		return out, nil
	case opIDs:
		// Part of the shared immutable plane, so clients fetch it once
		// per connection, not per query: ids[v] is the external vertex
		// identifier of internal slot v, the order every value vector in
		// the other responses uses.
		g := rs.srv.sess.Partitioned().G
		ids := make([]int64, g.NumVertices())
		for v := range ids {
			ids[v] = int64(g.IDOf(int32(v)))
		}
		return codec.AppendInt64s(nil, ids), nil
	default:
		return nil, fmt.Errorf("serve: unknown rpc op %d", op)
	}
}

// Client is one process's connection to a serving plane. Safe for
// concurrent calls over the shared link.
type Client struct {
	plane   *transport.Plane
	id      int32
	timeout time.Duration
}

// DialRPC connects to a serving plane at addr. id must be a positive
// endpoint id unique among the plane's clients (a PID works). timeout
// bounds both the dial handshake and each call.
func DialRPC(addr string, id int32, timeout time.Duration) (*Client, error) {
	if id <= serverEndpoint {
		return nil, errors.New("serve: client id must be positive")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	// Replies go to the parked call inside the plane; nothing else is
	// ever addressed to a client.
	plane, err := transport.Listen(transport.Config{OnFrame: func(transport.Frame) {}})
	if err != nil {
		return nil, err
	}
	if err := plane.Dial(id, addr, []int32{id}, []int32{serverEndpoint}); err != nil {
		plane.Close()
		return nil, err
	}
	if err := plane.WaitRoute(serverEndpoint, timeout); err != nil {
		plane.Close()
		return nil, err
	}
	return &Client{plane: plane, id: id, timeout: timeout}, nil
}

// Close tears down the client plane; calls in flight return an error at
// once, as they do when the server's link is declared dead.
func (c *Client) Close() error { return c.plane.Close() }

// call sends one request and waits for its response body, or an error:
// the Server's own (its text, as a transport.RemoteError) or the call
// path's (timeout, client closed, server gone).
func (c *Client) call(op uint32, args func([]byte) []byte) (*codec.Reader, error) {
	req := codec.AppendUint32(nil, op)
	if args != nil {
		req = args(req)
	}
	resp, err := c.plane.Call(c.id, serverEndpoint, req, c.timeout, nil)
	if err != nil {
		return nil, err
	}
	return codec.NewReader(resp), nil
}

// SSSP asks the server for single-source shortest paths from src.
func (c *Client) SSSP(src graph.VertexID) ([]float64, QueryMeta, error) {
	r, err := c.call(opSSSP, func(b []byte) []byte {
		return codec.AppendInt64(b, int64(src))
	})
	if err != nil {
		return nil, QueryMeta{}, err
	}
	meta := readMeta(r)
	dist := r.Float64s()
	return dist, meta, r.Err()
}

// CC asks the server for connected-component labels.
func (c *Client) CC() ([]int64, QueryMeta, error) {
	r, err := c.call(opCC, nil)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	meta := readMeta(r)
	labels := r.Int64s()
	return labels, meta, r.Err()
}

// PageRank asks the server for PageRank scores.
func (c *Client) PageRank() ([]float64, QueryMeta, error) {
	r, err := c.call(opPageRank, nil)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	meta := readMeta(r)
	ranks := r.Float64s()
	return ranks, meta, r.Err()
}

// Recommend asks the server for the user's top-k unrated products.
func (c *Client) Recommend(user, k int) ([]Rec, QueryMeta, error) {
	r, err := c.call(opRecommend, func(b []byte) []byte {
		b = codec.AppendInt64(b, int64(user))
		return codec.AppendInt64(b, int64(k))
	})
	if err != nil {
		return nil, QueryMeta{}, err
	}
	meta := readMeta(r)
	n := int(r.Uint32())
	if r.Err() != nil {
		return nil, meta, r.Err()
	}
	recs := make([]Rec, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Rec{Product: int(r.Int64()), Score: r.Float64()})
	}
	return recs, meta, r.Err()
}

// IDs fetches the server's external vertex identifiers: ids[v] names
// the vertex whose value sits at index v of every SSSP/CC/PageRank
// response. Static for the life of the server — fetch once and reuse.
func (c *Client) IDs() ([]int64, error) {
	r, err := c.call(opIDs, nil)
	if err != nil {
		return nil, err
	}
	ids := r.Int64s()
	return ids, r.Err()
}

// Stats fetches the server's scheduling counters.
func (c *Client) Stats() (Stats, error) {
	r, err := c.call(opStats, nil)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	st.Admitted = r.Int64()
	st.Completed = r.Int64()
	st.Failed = r.Int64()
	st.Active = r.Int64()
	st.BusySeconds = r.Float64()
	st.UpSeconds = r.Float64()
	st.QPS = r.Float64()
	st.Rejected = r.Int64()
	st.Batches = r.Int64()
	st.BatchedQueries = r.Int64()
	st.MaxBatch = r.Int64()
	st.QueuedNow = r.Int64()
	return st, r.Err()
}
