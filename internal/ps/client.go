package ps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
)

// maxRouteAttempts bounds the moved-stripe retry loop: each attempt
// follows the moved reply's forwarding hint (or refreshes the route
// table when there is none), so a handful of rounds rides out any burst
// of concurrent migrations.
const maxRouteAttempts = 6

// movedRef is one stripe a server bounced, with the forwarding hint from
// its tombstone ("" when the server has no forwarding entry).
type movedRef struct {
	idx int
	fwd string
}

// errClientClosed surfaces ops racing Close (or a SetServers shrink)
// instead of dereferencing a vanished connection.
var errClientClosed = fmt.Errorf("ps: client closed")

// stripeRef locates one stripe of a job from the client's point of view.
type stripeRef struct {
	lo, n    int
	owner    string   // server addr holding the primary
	replicas []string // servers holding read replicas
}

// jobRoute is an immutable stripe→server map for one job. Clients swap
// the whole route on refresh, so in-flight ops keep a consistent view.
type jobRoute struct {
	stripes []stripeRef // indexed by stripe index; contiguous tiling
}

// extent is the model length the route tiles.
func (r *jobRoute) extent() int {
	if len(r.stripes) == 0 {
		return 0
	}
	last := r.stripes[len(r.stripes)-1]
	return last.lo + last.n
}

// overlapping lists the stripes intersecting [lo, lo+n).
func (r *jobRoute) overlapping(lo, n int) []int {
	var out []int
	for s, st := range r.stripes {
		if st.lo < lo+n && st.lo+st.n > lo {
			out = append(out, s)
		}
	}
	return out
}

// Client talks to the set of parameter servers hosting one or more jobs'
// models. It routes per stripe: pulls gather whole stripes from their
// owners (or replicas, when enabled), pushes scatter deltas to the
// owners, and an op that hits a migrated-away stripe refreshes the route
// table from the servers and retries — so the server set and stripe
// placement can change underneath a running job. Safe for concurrent use.
type Client struct {
	timeout time.Duration
	// stripeElems overrides the Init-time stripe size (tests and the
	// rebalance bench use small stripes to get many movable units).
	stripeElems  int
	readReplicas atomic.Bool
	rr           atomic.Uint64

	// conn opens (or, when borrowed, looks up) the connection to one
	// server address. Borrowed connections belong to the caller of
	// NewClientOver, so Close leaves them open.
	conn     ConnFunc
	borrowed bool

	mu      sync.RWMutex
	addrs   []string
	clients map[string]*rpc.Client
	routes  map[string]*jobRoute
	// retired holds connections to servers dropped by SetServers; they
	// stay open (in-flight ops may still reference them) until Close.
	retired []*rpc.Client
}

// NewClient dials every server address.
func NewClient(addrs []string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return openClient(addrs, timeout, func(addr string) (*rpc.Client, error) {
		return rpc.Dial(addr, timeout)
	}, false)
}

// NewClientOver builds a client on connections the caller already holds:
// conn resolves each server address, here and in SetServers. Close drops
// the client's routes and leaves those connections open for their owner
// (the master snapshots models over its existing worker connections).
func NewClientOver(addrs []string, conn ConnFunc, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return openClient(addrs, timeout, conn, true)
}

func openClient(addrs []string, timeout time.Duration, conn ConnFunc, borrowed bool) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("ps: no server addresses")
	}
	c := &Client{
		timeout:  timeout,
		conn:     conn,
		borrowed: borrowed,
		clients:  make(map[string]*rpc.Client),
		routes:   make(map[string]*jobRoute),
	}
	for _, addr := range addrs {
		cl, err := conn(addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("ps: dial server %s: %w", addr, err)
		}
		c.addrs = append(c.addrs, addr)
		c.clients[addr] = cl
	}
	return c, nil
}

// SetStripeElems overrides the per-stripe element count used by Init and
// Restore (0 restores the size-derived default). Call before Init.
func (c *Client) SetStripeElems(n int) { c.stripeElems = n }

// SetReadReplicas toggles serving pulls from replicas: when on, a pull
// of a replicated stripe round-robins across the owner and its replicas.
// Replica reads are eventually consistent (replicas trail the owner by
// the propagation delay), which SGD-style consumers tolerate; snapshots
// should leave this off.
func (c *Client) SetReadReplicas(on bool) { c.readReplicas.Store(on) }

// SetServers replaces the server set (grow/shrink of a job's servers).
// Connections to retained addrs are reused; routes are cleared so the
// next op re-discovers stripe placement.
func (c *Client) SetServers(addrs []string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("ps: no server addresses")
	}
	fresh := make(map[string]*rpc.Client, len(addrs))
	for _, addr := range addrs {
		if _, dup := fresh[addr]; dup {
			continue
		}
		c.mu.RLock()
		cl := c.clients[addr]
		c.mu.RUnlock()
		if cl == nil {
			var err error
			cl, err = c.conn(addr)
			if err != nil {
				for a, opened := range fresh {
					c.mu.RLock()
					reused := c.clients[a] == opened
					c.mu.RUnlock()
					if !reused && !c.borrowed {
						opened.Close()
					}
				}
				return fmt.Errorf("ps: dial server %s: %w", addr, err)
			}
		}
		fresh[addr] = cl
	}
	c.mu.Lock()
	for addr, cl := range c.clients {
		if fresh[addr] != cl {
			c.retired = append(c.retired, cl)
		}
	}
	c.addrs = append(c.addrs[:0:0], addrs...)
	c.clients = fresh
	c.routes = make(map[string]*jobRoute)
	c.mu.Unlock()
	return nil
}

// snapshotServers copies the current addr list and connection map.
func (c *Client) snapshotServers() ([]string, map[string]*rpc.Client) {
	c.mu.RLock()
	addrs := append([]string(nil), c.addrs...)
	conns := make(map[string]*rpc.Client, len(c.clients))
	for a, cl := range c.clients {
		conns[a] = cl
	}
	c.mu.RUnlock()
	return addrs, conns
}

func (c *Client) route(job string) *jobRoute {
	c.mu.RLock()
	r := c.routes[job]
	c.mu.RUnlock()
	return r
}

// Init distributes a full model across the servers: the model is carved
// into stripes, stripes are spread evenly, and every server receives its
// stripes in one install message — deployment is bounded by the slowest
// server, not the sum of sequential round trips.
func (c *Client) Init(job string, model []float64) error {
	return c.install(job, model, MethodInit)
}

// Restore reinstalls a checkpointed model across the servers (the
// §IV-B4 migration path; same wire format as Init).
func (c *Client) Restore(job string, model []float64) error {
	return c.install(job, model, MethodRestore)
}

func (c *Client) install(job string, model []float64, method string) error {
	addrs, conns := c.snapshotServers()
	k := len(addrs)
	se := c.stripeElems
	if se <= 0 {
		se = stripeElemsFor(len(model), k)
	}
	S := stripeCount(len(model), se)
	route := &jobRoute{stripes: make([]stripeRef, S)}
	perServer := make([][]int, k)
	for i := 0; i < k; i++ {
		slo, shi := Partition(S, k, i)
		for s := slo; s < shi; s++ {
			lo := s * se
			hi := minInt(lo+se, len(model))
			if hi < lo {
				hi = lo
			}
			route.stripes[s] = stripeRef{lo: lo, n: hi - lo, owner: addrs[i]}
			perServer[i] = append(perServer[i], s)
		}
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := conns[addrs[i]]
			if cl == nil {
				errs[i] = errClientClosed
				return
			}
			body := rpc.GetBuffer(2 + len(job) + 4)[:0]
			body = rpc.AppendString(body, job)
			body = rpc.AppendUint32(body, uint32(len(perServer[i])))
			for _, s := range perServer[i] {
				st := route.stripes[s]
				body = appendStripeFrame(body, s, st.lo, 0, 1, nil, model[st.lo:st.lo+st.n])
			}
			reply, err := cl.Call(method, body, c.timeout)
			rpc.PutBuffer(body)
			rpc.PutBuffer(reply)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ps: %s on server %d (%s): %w", method, i, addrs[i], err)
		}
	}
	c.mu.Lock()
	c.routes[job] = route
	c.mu.Unlock()
	return nil
}

// refreshRoute rebuilds the stripe→server map by asking every server
// which stripes of the job it holds. Partial per-server failures are
// tolerated as long as the surviving answers tile the model. A stripe
// can transiently appear on no server (the queries are not an atomic
// snapshot: dest asked before its install, source asked after the
// handoff), so incomplete tilings retry briefly before failing.
func (c *Client) refreshRoute(job string, timeout time.Duration) (*jobRoute, error) {
	var lastErr error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		route, incomplete, err := c.queryRoutes(job, timeout)
		if err == nil {
			return route, nil
		}
		lastErr = err
		if !incomplete {
			break
		}
	}
	return nil, lastErr
}

// queryRoutes performs one routes fan-out. incomplete marks failures a
// racing migration explains (retryable); hard failures are not.
func (c *Client) queryRoutes(job string, timeout time.Duration) (route *jobRoute, incomplete bool, err error) {
	addrs, conns := c.snapshotServers()
	replies := make([]RoutesReply, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := conns[addrs[i]]
			if cl == nil {
				errs[i] = errClientClosed
				return
			}
			replies[i], errs[i] = rpc.Invoke[RoutesArgs, RoutesReply](
				cl, MethodRoutes, RoutesArgs{Job: job}, timeout)
		}(i)
	}
	wg.Wait()
	byIdx := make(map[int]*stripeRef)
	maxIdx := -1
	for i, reply := range replies {
		if errs[i] != nil {
			continue
		}
		for _, sr := range reply.Stripes {
			ref := byIdx[sr.Index]
			if ref == nil {
				ref = &stripeRef{lo: -1}
				byIdx[sr.Index] = ref
			}
			if sr.Primary {
				ref.lo, ref.n, ref.owner = sr.Lo, sr.Len, addrs[i]
			} else {
				ref.replicas = append(ref.replicas, addrs[i])
			}
			if sr.Index > maxIdx {
				maxIdx = sr.Index
			}
		}
	}
	firstErr := func() error {
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("ps: routes on server %d (%s): %w", i, addrs[i], err)
			}
		}
		return nil
	}
	if maxIdx < 0 {
		if err := firstErr(); err != nil {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("ps: no stripes for job %q", job)
	}
	route = &jobRoute{stripes: make([]stripeRef, maxIdx+1)}
	wantLo := 0
	for s := 0; s <= maxIdx; s++ {
		ref := byIdx[s]
		if ref == nil || ref.owner == "" || ref.lo != wantLo {
			if err := firstErr(); err != nil {
				return nil, true, err
			}
			return nil, true, fmt.Errorf("ps: incomplete routes for job %q: stripe %d unaccounted", job, s)
		}
		route.stripes[s] = *ref
		wantLo += ref.n
	}
	c.mu.Lock()
	c.routes[job] = route
	c.mu.Unlock()
	return route, false, nil
}

// routeCovering returns a route whose tiling covers [0, need). A cached
// or freshly queried route can transiently cover less when the stripes
// near the end are mid-migration (the per-server queries are not an
// atomic snapshot), so a short route retries rather than erring — and a
// genuinely short model (the caller asked past the end) surfaces as the
// final error.
func (c *Client) routeCovering(job string, need int, r *jobRoute, timeout time.Duration) (*jobRoute, error) {
	var err error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if r != nil && r.extent() >= need {
			return r, nil
		}
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		if r, err = c.refreshRoute(job, timeout); err != nil {
			return nil, err
		}
	}
	if r != nil && r.extent() >= need {
		return r, nil
	}
	return nil, fmt.Errorf("ps: shape mismatch for job %q: request reaches %d, model has %d elements",
		job, need, r.extent())
}

// Pull fetches the full model, stripes gathered concurrently from their
// owners — the PULL subtask. It allocates a fresh model; iterating
// callers should prefer PullInto with a reused buffer.
func (c *Client) Pull(job string, modelSize int) ([]float64, error) {
	model := make([]float64, modelSize)
	if err := c.PullInto(job, model); err != nil {
		return nil, err
	}
	return model, nil
}

// PullInto fetches the full model into the caller's buffer (len(model)
// is the model size). Each stripe decodes straight into its slice of the
// buffer, so the steady-state pull allocates nothing.
func (c *Client) PullInto(job string, model []float64) error {
	return c.pullStripes(job, MethodPull, 0, model, true, c.timeout)
}

// PullRange fetches the model elements [lo, lo+len(dst)) into dst.
// Stripes overlapping the range travel whole; only the overlap lands in
// dst. Used by range-oriented consumers (the skew load generator).
func (c *Client) PullRange(job string, lo int, dst []float64) error {
	return c.pullStripes(job, MethodPull, lo, dst, true, c.timeout)
}

// Snapshot checkpoints the full model (used when pausing a job). It
// rides the same per-stripe streaming as Pull, so snapshotting a large
// job does not stall co-located jobs' pushes. Snapshots always read
// primaries, never replicas: the result is the exact aggregation state.
func (c *Client) Snapshot(job string, modelSize int) ([]float64, error) {
	return c.SnapshotWithin(job, modelSize, c.timeout)
}

// SnapshotWithin is Snapshot with a per-call RPC timeout in place of the
// client's (a shutdown drain bounds each job's final checkpoint).
func (c *Client) SnapshotWithin(job string, modelSize int, timeout time.Duration) ([]float64, error) {
	model := make([]float64, modelSize)
	if err := c.pullStripes(job, MethodSnapshot, 0, model, false, timeout); err != nil {
		return nil, err
	}
	return model, nil
}

// pullStripes gathers every stripe overlapping [reqLo, reqLo+len(dst))
// into dst. A moved stripe with a forwarding hint retries directly at
// the forward target (chasing the stripe through back-to-back
// migrations); one without a hint triggers a route refresh. Connection
// errors abort with the server identity attached.
func (c *Client) pullStripes(job, method string, reqLo int, dst []float64, allowReplicas bool, timeout time.Duration) error {
	start := time.Now()
	var movedBytes int64
	r, err := c.routeCovering(job, reqLo+len(dst), c.route(job), timeout)
	if err != nil {
		return err
	}
	pending := r.overlapping(reqLo, len(dst))
	forwards := make(map[int]string)
	useReplicas := allowReplicas && c.readReplicas.Load()
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt >= maxRouteAttempts {
			return fmt.Errorf("ps: %s %q: %d stripes unavailable after %d attempts",
				method, job, len(pending), attempt)
		}
		if attempt > 0 && !allForwarded(pending, forwards) {
			if r, err = c.routeCovering(job, reqLo+len(dst), nil, timeout); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		_, conns := c.snapshotServers()
		groups := make(map[string][]int)
		var stale []int
		for _, s := range pending {
			if s >= len(r.stripes) {
				stale = append(stale, s)
				continue
			}
			st := r.stripes[s]
			addr := st.owner
			if fwd := forwards[s]; fwd != "" && conns[fwd] != nil {
				addr = fwd
			} else if useReplicas && len(st.replicas) > 0 {
				cands := append([]string{st.owner}, st.replicas...)
				addr = cands[int(c.rr.Add(1))%len(cands)]
			}
			if conns[addr] == nil {
				stale = append(stale, s)
				continue
			}
			groups[addr] = append(groups[addr], s)
		}
		type result struct {
			addr  string
			moved []movedRef
			bytes int64
			err   error
		}
		results := make(chan result, len(groups))
		for addr, idxs := range groups {
			go func(addr string, idxs []int) {
				res := result{addr: addr}
				body := rpc.GetBuffer(2 + len(job) + 4 + 4*len(idxs))[:0]
				body = rpc.AppendString(body, job)
				body = rpc.AppendUint32(body, uint32(len(idxs)))
				for _, s := range idxs {
					body = rpc.AppendUint32(body, uint32(s))
				}
				reply, err := conns[addr].Call(method, body, timeout)
				rpc.PutBuffer(body)
				if err != nil {
					res.err = err
					results <- res
					return
				}
				res.bytes = int64(len(reply))
				res.moved, res.err = decodeStripesInto(reply, reqLo, dst)
				rpc.PutBuffer(reply)
				results <- res
			}(addr, idxs)
		}
		pending = append([]int(nil), stale...)
		var callErr error
		for range groups {
			res := <-results
			if res.err != nil {
				if callErr == nil {
					callErr = fmt.Errorf("ps: %s from server %s: %w", method, res.addr, res.err)
				}
				continue
			}
			movedBytes += res.bytes
			for _, mv := range res.moved {
				setForward(forwards, mv)
				pending = append(pending, mv.idx)
			}
		}
		if callErr != nil {
			return callErr
		}
	}
	c.applyForwards(job, forwards)
	metrics.Comm.ObservePull(movedBytes, time.Since(start))
	return nil
}

// allForwarded reports whether every pending stripe has a forwarding
// hint — then the retry chases the hints directly and the route
// re-scrape (whose answer the next migration can invalidate) is skipped.
func allForwarded(pending []int, forwards map[int]string) bool {
	for _, s := range pending {
		if forwards[s] == "" {
			return false
		}
	}
	return len(pending) > 0
}

// setForward records a bounce's forwarding hint, clearing a stale one
// when the server had no forwarding entry.
func setForward(forwards map[int]string, mv movedRef) {
	if mv.fwd != "" {
		forwards[mv.idx] = mv.fwd
	} else {
		delete(forwards, mv.idx)
	}
}

// applyForwards promotes the forwarding hints an op chased into the
// cached route, so subsequent ops go straight to the new owner instead
// of bouncing through the old one on every call. Replicas are cleared
// for promoted stripes (migration drops them); the next full refresh
// restores any. Concurrent promotions may overwrite each other — the
// route is a hint either way, and the next bounce re-corrects it.
func (c *Client) applyForwards(job string, forwards map[int]string) {
	if len(forwards) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.routes[job]
	if r == nil {
		return
	}
	clone := &jobRoute{stripes: append([]stripeRef(nil), r.stripes...)}
	changed := false
	for s, fwd := range forwards {
		if s < len(clone.stripes) && fwd != "" && clone.stripes[s].owner != fwd {
			clone.stripes[s].owner = fwd
			clone.stripes[s].replicas = nil
			changed = true
		}
	}
	if changed {
		c.routes[job] = clone
	}
}

// decodeStripesInto places a pull reply's stripes into dst (which holds
// [reqLo, reqLo+len(dst)) of the model) and returns the stripes the
// server bounced, each with its forwarding hint.
func decodeStripesInto(reply []byte, reqLo int, dst []float64) ([]movedRef, error) {
	count32, rest, err := rpc.ReadUint32(reply)
	if err != nil {
		return nil, err
	}
	var moved []movedRef
	for i := 0; i < int(count32); i++ {
		idx32, next, err := rpc.ReadUint32(rest)
		if err != nil {
			return nil, err
		}
		if len(next) < 1 {
			return nil, fmt.Errorf("rpc: stripe status truncated")
		}
		status := next[0]
		rest = next[1:]
		if status != stripeOK {
			fwd, next, err := rpc.ReadString(rest)
			if err != nil {
				return nil, err
			}
			rest = next
			moved = append(moved, movedRef{idx: int(idx32), fwd: fwd})
			continue
		}
		lo32, next, err := rpc.ReadUint32(rest)
		if err != nil {
			return nil, err
		}
		n, data, next, err := rpc.FloatFrame(next)
		if err != nil {
			return nil, err
		}
		rest = next
		slo := int(lo32)
		olo, ohi := maxInt(slo, reqLo), minInt(slo+n, reqLo+len(dst))
		for k := olo; k < ohi; k++ {
			dst[k-reqLo] = rpc.FloatAt(data, k-slo)
		}
	}
	return moved, nil
}

// Push scatters an additive delta across the stripe owners — the PUSH
// subtask. Aggregation happens server-side, in place, at each stripe's
// primary.
func (c *Client) Push(job string, delta []float64) error {
	return c.pushStripes(job, 0, delta)
}

// PushRange pushes an additive delta for elements [lo, lo+len(delta)).
func (c *Client) PushRange(job string, lo int, delta []float64) error {
	return c.pushStripes(job, lo, delta)
}

func (c *Client) pushStripes(job string, reqLo int, delta []float64) error {
	start := time.Now()
	var movedBytes int64
	if reqLo < 0 {
		return fmt.Errorf("ps: push %q: negative offset %d", job, reqLo)
	}
	r, err := c.routeCovering(job, reqLo+len(delta), c.route(job), c.timeout)
	if err != nil {
		return err
	}
	pending := r.overlapping(reqLo, len(delta))
	forwards := make(map[int]string)
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt >= maxRouteAttempts {
			return fmt.Errorf("ps: push %q: %d stripes unapplied after %d attempts",
				job, len(pending), attempt)
		}
		if attempt > 0 && !allForwarded(pending, forwards) {
			if r, err = c.routeCovering(job, reqLo+len(delta), nil, c.timeout); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		_, conns := c.snapshotServers()
		groups := make(map[string][]int)
		var stale []int
		for _, s := range pending {
			if s >= len(r.stripes) {
				stale = append(stale, s)
				continue
			}
			// Stripe geometry (lo/n) is immutable across migrations, so a
			// forwarded push can still build its body from the stale route.
			addr := r.stripes[s].owner
			if fwd := forwards[s]; fwd != "" && conns[fwd] != nil {
				addr = fwd
			}
			if conns[addr] == nil {
				stale = append(stale, s)
				continue
			}
			groups[addr] = append(groups[addr], s)
		}
		type result struct {
			addr   string
			failed []movedRef
			bytes  int64
			err    error
		}
		results := make(chan result, len(groups))
		for addr, idxs := range groups {
			go func(addr string, idxs []int) {
				res := result{addr: addr}
				body := rpc.GetBuffer(2 + len(job) + 4)[:0]
				body = rpc.AppendString(body, job)
				body = rpc.AppendUint32(body, uint32(len(idxs)))
				for _, s := range idxs {
					st := r.stripes[s]
					olo, ohi := maxInt(st.lo, reqLo), minInt(st.lo+st.n, reqLo+len(delta))
					body = rpc.AppendUint32(body, uint32(s))
					body = rpc.AppendUint32(body, uint32(olo))
					body = rpc.AppendFloats(body, delta[olo-reqLo:ohi-reqLo])
					res.bytes += int64(8 * (ohi - olo))
				}
				reply, err := conns[addr].Call(MethodPush, body, c.timeout)
				rpc.PutBuffer(body)
				if err != nil {
					res.err = err
					results <- res
					return
				}
				res.failed, res.err = decodePushReply(reply)
				rpc.PutBuffer(reply)
				results <- res
			}(addr, idxs)
		}
		pending = append([]int(nil), stale...)
		var callErr error
		for range groups {
			res := <-results
			if res.err != nil {
				// A connection-level push failure is ambiguous (the delta may
				// or may not have been applied); retrying could double-apply,
				// so the whole op aborts. Per-stripe moved failures are safe
				// to retry: the server verifiably did not apply them.
				if callErr == nil {
					callErr = fmt.Errorf("ps: push on server %s: %w", res.addr, res.err)
				}
				continue
			}
			movedBytes += res.bytes
			for _, mv := range res.failed {
				setForward(forwards, mv)
				pending = append(pending, mv.idx)
			}
		}
		if callErr != nil {
			return callErr
		}
	}
	c.applyForwards(job, forwards)
	metrics.Comm.ObservePush(movedBytes, time.Since(start))
	return nil
}

func decodePushReply(reply []byte) ([]movedRef, error) {
	nfail32, rest, err := rpc.ReadUint32(reply)
	if err != nil {
		return nil, err
	}
	var failed []movedRef
	for i := 0; i < int(nfail32); i++ {
		idx32, next, err := rpc.ReadUint32(rest)
		if err != nil {
			return nil, err
		}
		fwd, next, err := rpc.ReadString(next)
		if err != nil {
			return nil, err
		}
		rest = next
		failed = append(failed, movedRef{idx: int(idx32), fwd: fwd})
	}
	return failed, nil
}

// Drop removes the job's partitions from every server.
func (c *Client) Drop(job string) error {
	addrs, conns := c.snapshotServers()
	for i, addr := range addrs {
		if conns[addr] == nil {
			return fmt.Errorf("ps: drop on server %d (%s): %w", i, addr, errClientClosed)
		}
		if _, err := rpc.Invoke[DropArgs, Ack](conns[addr], MethodDrop, DropArgs{Job: job}, c.timeout); err != nil {
			return fmt.Errorf("ps: drop on server %d (%s): %w", i, addr, err)
		}
	}
	c.mu.Lock()
	delete(c.routes, job)
	c.mu.Unlock()
	return nil
}

// Close tears down the connections, including any retired by SetServers;
// a client built by NewClientOver only forgets them.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.clients
	retired := c.retired
	c.addrs = nil
	c.clients = make(map[string]*rpc.Client)
	c.retired = nil
	c.mu.Unlock()
	if c.borrowed {
		return
	}
	for _, cl := range conns {
		if cl != nil {
			cl.Close()
		}
	}
	for _, cl := range retired {
		if cl != nil {
			cl.Close()
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
