package serve

// The serving RPC plane: a Server hosted behind the internal/transport
// TCP message plane, on the same call path as the engine's
// remote-worker protocol (transport.Plane.Call / Reply).
//
// Topology: the server plane listens and serves endpoint 0. Each client
// makes a dial-only plane with a unique positive id, serving endpoint
// id over link id, routing endpoint 0 to the server. A query is one
// Call — request [op uint32][args...], reply [QueryMeta][result], or
// the Server's error as the call's error — and the plane pairs replies
// with calls by id, so one client may issue concurrent calls over its
// single link. The server side is transport.Plane.Serve: the plane queues
// calls for endpoint 0, a pool of its goroutines runs handle on each and
// sends the answer back.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
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

// argBytes is the argument length of each op: a request is exactly
// [op uint32] and that many bytes of int64 arguments.
var argBytes = [...]int{opSSSP: 8, opCC: 0, opPageRank: 0, opRecommend: 16, opStats: 0, opIDs: 0}

// maxRequestFrame bounds an inbound frame on the serving plane. The
// largest request is 4 + 16 bytes; the rest is room for the link's own
// frames (a client's Hello lists the one endpoint it serves), so a
// client cannot make the server allocate the transport's 64 MiB default.
const maxRequestFrame = 4 << 10

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

// errClosing refuses a call that reaches a closing RPCServer.
var errClosing = errors.New("serve: server closing, query refused")

// RPCServer hosts a Server behind a listening transport plane.
type RPCServer struct {
	srv     *Server
	plane   *transport.Plane
	closing atomic.Bool
}

// ListenRPC exposes srv on addr ("127.0.0.1:0" for an ephemeral port).
// workers bounds concurrent request handling ahead of the Server's own
// admission control; <= 0 defaults to the server's in-flight cap plus
// its queue depth, so the transport pool is never what sheds load.
func ListenRPC(srv *Server, addr string, workers int) (*RPCServer, error) {
	if workers <= 0 {
		workers = srv.cfg.maxInflight + srv.cfg.queueDepth
	}
	plane, err := transport.Listen(transport.Config{ListenAddr: addr, MaxFrame: maxRequestFrame})
	if err != nil {
		return nil, err
	}
	rs := &RPCServer{srv: srv, plane: plane}
	// The backlog equals the pool: beyond it the readers push back on
	// their clients, behind the Server's own admission control.
	plane.Serve(serverEndpoint, workers, workers, func(f transport.Frame) ([]byte, error) {
		return rs.handle(f.Payload)
	})
	return rs, nil
}

// Addr is the plane's bound listen address.
func (rs *RPCServer) Addr() string { return rs.plane.Addr() }

// Close drains the server, then tears down the transport plane. A call
// that reaches the server once Close has begun is refused; the calls
// being handled run to their answers, and the plane closes once their
// callers have them.
func (rs *RPCServer) Close() error {
	rs.closing.Store(true)
	rs.plane.Drain(serverEndpoint)
	return rs.plane.Close()
}

// answer is the response to a query that started at t0: the Server's
// error, or [QueryMeta] and the result vector.
func answer[V any](t0 time.Time, vals []V, st *core.RunStats, err error, vec func([]byte, []V) []byte) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return vec(appendMeta(nil, time.Since(t0).Seconds(), st), vals), nil
}

// handle decodes one request and runs it through the scheduler. A
// request that is not exactly its op and arguments is refused before
// it reaches the Server.
func (rs *RPCServer) handle(payload []byte) ([]byte, error) {
	if rs.closing.Load() {
		return nil, errClosing
	}
	r := codec.NewReader(payload)
	op := r.Uint32()
	if r.Err() != nil {
		return nil, fmt.Errorf("serve: bad request frame: %w", r.Err())
	}
	if op != 0 && op < uint32(len(argBytes)) { // an unknown op is the switch's default
		if extra := r.Remaining() - argBytes[op]; extra != 0 {
			return nil, fmt.Errorf("serve: rpc op %d takes %d argument bytes, request has %+d", op, argBytes[op], extra)
		}
	}
	t0 := time.Now()
	switch op {
	case opSSSP:
		dist, st, err := rs.srv.SSSP(graph.VertexID(r.Int64()))
		return answer(t0, dist, &st, err, codec.AppendFloat64s)
	case opCC:
		labels, st, err := rs.srv.CC()
		return answer(t0, labels, &st, err, codec.AppendInt64s)
	case opPageRank:
		ranks, st, err := rs.srv.PageRank()
		return answer(t0, ranks, &st, err, codec.AppendFloat64s)
	case opRecommend:
		user := int(r.Int64())
		k := int(r.Int64())
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
		// Stats is 8-byte counters only, so its wire form is its fields in
		// declaration order, little-endian like the rest of the protocol.
		return binary.Append(nil, binary.LittleEndian, rs.srv.Stats())
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
// bounds each call. The dial is bounded by transport.Config's default
// RetryLimit (8 attempts), each a 1 s connect and a 2 s handshake
// deadline, with backoff between them.
func DialRPC(addr string, id int32, timeout time.Duration) (*Client, error) {
	if id <= serverEndpoint {
		return nil, errors.New("serve: client id must be positive")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	// Replies go to the parked call inside the plane; nothing else is
	// ever addressed to a client.
	plane, err := transport.Listen(transport.Config{})
	if err != nil {
		return nil, err
	}
	if err := plane.Dial(id, addr, []int32{id}, []int32{serverEndpoint}); err != nil {
		plane.Close()
		return nil, err
	}
	return &Client{plane: plane, id: id, timeout: timeout}, nil
}

// Close tears down the client plane; calls in flight return an error at
// once, as they do when the server's link is declared dead.
func (c *Client) Close() error { return c.plane.Close() }

// call sends one request — the op and its integer arguments — and waits
// for its response body, or an error: the Server's own (its text, as a
// transport.RemoteError) or the call path's (timeout, client closed,
// server gone).
func (c *Client) call(op uint32, args ...int64) ([]byte, error) {
	req := codec.AppendUint32(nil, op)
	for _, a := range args {
		req = codec.AppendInt64(req, a)
	}
	return c.plane.Call(c.id, serverEndpoint, req, c.timeout, nil)
}

// query decodes the response of a call that answers [QueryMeta][one
// value vector].
func query[V any](resp []byte, err error, vec func(*codec.Reader) []V) ([]V, QueryMeta, error) {
	if err != nil {
		return nil, QueryMeta{}, err
	}
	r := codec.NewReader(resp)
	meta := readMeta(r)
	vals := vec(r)
	return vals, meta, r.Err()
}

// SSSP asks the server for single-source shortest paths from src.
func (c *Client) SSSP(src graph.VertexID) ([]float64, QueryMeta, error) {
	resp, err := c.call(opSSSP, int64(src))
	return query(resp, err, (*codec.Reader).Float64s)
}

// CC asks the server for connected-component labels.
func (c *Client) CC() ([]int64, QueryMeta, error) {
	resp, err := c.call(opCC)
	return query(resp, err, (*codec.Reader).Int64s)
}

// PageRank asks the server for PageRank scores.
func (c *Client) PageRank() ([]float64, QueryMeta, error) {
	resp, err := c.call(opPageRank)
	return query(resp, err, (*codec.Reader).Float64s)
}

// Recommend asks the server for the user's top-k unrated products.
func (c *Client) Recommend(user, k int) ([]Rec, QueryMeta, error) {
	resp, err := c.call(opRecommend, int64(user), int64(k))
	if err != nil {
		return nil, QueryMeta{}, err
	}
	r := codec.NewReader(resp)
	meta := readMeta(r)
	// The count is the peer's word: allocate for what the reply can hold
	// (16 bytes a record) and let a count that lies high run the reader
	// dry, as codec.Reader's own vectors do.
	n := int(r.Uint32())
	recs := make([]Rec, 0, min(n, r.Remaining()/16))
	for i := 0; i < n && r.Err() == nil; i++ {
		recs = append(recs, Rec{Product: int(r.Int64()), Score: r.Float64()})
	}
	if r.Err() != nil {
		return nil, meta, r.Err()
	}
	return recs, meta, nil
}

// IDs fetches the server's external vertex identifiers: ids[v] names
// the vertex whose value sits at index v of every SSSP/CC/PageRank
// response. Static for the life of the server — fetch once and reuse.
func (c *Client) IDs() ([]int64, error) {
	resp, err := c.call(opIDs)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(resp)
	ids := r.Int64s()
	return ids, r.Err()
}

// Stats fetches the server's scheduling counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	resp, err := c.call(opStats)
	if err == nil {
		_, err = binary.Decode(resp, binary.LittleEndian, &st)
	}
	return st, err
}
