package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's side of the loopback connections to
// headtalkd. Each connection has one reader goroutine that files every
// response line into the ledger its id names.
type client struct {
	conns   []*conn
	ledgers map[byte]*ledger
	readers sync.WaitGroup
}

type conn struct {
	nc net.Conn
	// credits returns one send slot per answered closed-loop request.
	credits chan struct{}
	// badLines counts response lines that did not parse or named no
	// known phase.
	badLines atomic.Int64
	readErr  error
}

// dial opens n connections. Every phase's ledger must be registered
// here: the readers route by the id's first byte.
func dial(addr string, n int, ledgers []*ledger) (*client, error) {
	cl := &client{ledgers: map[byte]*ledger{}}
	for _, lg := range ledgers {
		cl.ledgers[lg.tag[0]] = lg
	}
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("connecting to headtalkd: %w", err)
		}
		c := &conn{nc: nc, credits: make(chan struct{}, closedOutstanding)}
		cl.conns = append(cl.conns, c)
		cl.readers.Add(1)
		go cl.read(c)
	}
	return cl, nil
}

func (cl *client) read(c *conn) {
	defer cl.readers.Done()
	br := bufio.NewReaderSize(c.nc, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		at := time.Now()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.readErr = err
			}
			return
		}
		r, perr := parseReply(line)
		lg := cl.ledgers[firstByte(r.ID)]
		if perr != nil || lg == nil {
			c.badLines.Add(1)
			continue
		}
		i, ok := lg.index(r.ID)
		if !ok {
			c.badLines.Add(1)
			continue
		}
		lg.record(i, r, at)
		if lg.closedLoop {
			select {
			case c.credits <- struct{}{}:
			default:
			}
		}
	}
}

func firstByte(s string) byte {
	if s == "" {
		return 0
	}
	return s[0]
}

// close shuts the connections and waits for the readers; ledgers may be
// read only after it returns.
func (cl *client) close() {
	for _, c := range cl.conns {
		_ = c.nc.Close()
	}
	cl.readers.Wait()
}

func (cl *client) badLines() int64 {
	var n int64
	for _, c := range cl.conns {
		n += c.badLines.Load()
	}
	return n
}

// lineFunc appends the wire line of request i of a ledger to buf.
type lineFunc func(buf []byte, lg *ledger, i int) []byte

// openLoop sends every request of lg at its due time (offsets from the
// phase start, pre-assigned to connections by connOf) regardless of how
// fast headtalkd answers, then waits up to drain for the answers.
func (cl *client) openLoop(lg *ledger, due []time.Duration, connOf func(i int) int, line lineFunc, drain time.Duration) {
	perConn := make([][]int, len(cl.conns))
	for i := range due {
		c := connOf(i)
		perConn[c] = append(perConn[c], i)
	}
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for ci, idx := range perConn {
		sort.Slice(idx, func(a, b int) bool { return due[idx[a]] < due[idx[b]] })
		// The scheduler hands each request to the connection's writer at
		// its due time and never blocks on the socket: when headtalkd
		// stops reading, the backlog shows as latency, not as a late
		// generator.
		ready := make(chan int, len(idx))
		wg.Add(2)
		go func(idx []int) {
			defer wg.Done()
			defer close(ready)
			for _, i := range idx {
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				q := &lg.reqs[i]
				q.due = at
				q.sent = time.Now()
				ready <- i
			}
		}(idx)
		go func(c *conn) {
			defer wg.Done()
			var buf []byte
			failed := false
			for i := range ready {
				if failed {
					continue
				}
				buf = line(buf[:0], lg, i)
				if _, err := c.nc.Write(buf); err != nil {
					failed = true
				}
			}
		}(cl.conns[ci])
	}
	wg.Wait()
	waitAnswered(lg, len(due), drain)
}

// closedLoop keeps closedOutstanding requests in flight on every
// connection, assigning ledger slots in send order; next picks the item
// (and session) of the k-th request a connection sends. It runs for d,
// or, when perConn is set, until every connection c has sent
// perConn(c) requests and all are answered (a fixed amount of work).
// It returns the measurement window, which closes at the last answer.
func (cl *client) closedLoop(lg *ledger, d time.Duration, perConn func(c int) int, next func(conn, k int) (item, sess int), line lineFunc, drain time.Duration) (time.Time, time.Time) {
	var slot atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range cl.conns {
		for len(c.credits) > 0 {
			<-c.credits
		}
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			var buf []byte
			outstanding := 0
			for k := 0; perConn == nil || k < perConn(ci); k++ {
				if outstanding >= closedOutstanding {
					select {
					case <-c.credits:
						outstanding--
					case <-time.After(time.Until(end)):
					}
				}
				if !time.Now().Before(end) {
					return
				}
				if outstanding >= closedOutstanding {
					k--
					continue
				}
				i := int(slot.Add(1) - 1)
				if i >= len(lg.reqs) {
					return
				}
				item, sess := next(ci, k)
				q := &lg.reqs[i]
				q.item, q.sess = int32(item), int32(sess)
				buf = line(buf[:0], lg, i)
				q.due = time.Now()
				q.sent = q.due
				if _, err := c.nc.Write(buf); err != nil {
					return
				}
				outstanding++
			}
		}(ci, c)
	}
	wg.Wait()
	sent := int(min(slot.Load(), int64(len(lg.reqs))))
	if waitAnswered(lg, sent, drain) {
		// The window closes at the last answer, so requests still in
		// flight at the deadline count in full. Every answer is filed
		// before answered counts it, so the receive times are safe to
		// read here.
		end = start
		for i := 0; i < sent; i++ {
			if r := lg.reqs[i].recv; r.After(end) {
				end = r
			}
		}
	}
	return start, end
}

// closedLoopOne sends every request of lg one after another, each after
// the previous answer.
func (cl *client) closedLoopOne(lg *ledger, next func(k int) (item, sess int), line lineFunc) {
	c := cl.conns[0]
	for len(c.credits) > 0 {
		<-c.credits
	}
	var buf []byte
	for i := range lg.reqs {
		item, sess := next(i)
		q := &lg.reqs[i]
		q.item, q.sess = int32(item), int32(sess)
		buf = line(buf[:0], lg, i)
		q.due = time.Now()
		q.sent = q.due
		if _, err := c.nc.Write(buf); err != nil {
			return
		}
		select {
		case <-c.credits:
		case <-time.After(drain):
			return
		}
	}
}

// waitAnswered polls until n requests of lg have an answer or drain
// passes, and reports whether all were answered.
func waitAnswered(lg *ledger, n int, drain time.Duration) bool {
	deadline := time.Now().Add(drain)
	for {
		if int(lg.answered.Load()) >= n {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// decisionLine is the NDJSON line of a whole-utterance request: the
// WAV path only, so sending it costs one small write.
func decisionLine(pool []*utterance) lineFunc {
	return func(buf []byte, lg *ledger, i int) []byte {
		buf = append(buf, `{"id":"`...)
		buf = append(buf, lg.tag...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `","wav":`...)
		buf = strconv.AppendQuote(buf, pool[lg.reqs[i].item].path)
		return append(buf, "}\n"...)
	}
}

// framesLine is the protocol-v2 line pushing one timeline chunk into a
// session; the chunk's samples are pre-encoded.
func framesLine(tl *timeline, prefix string) lineFunc {
	return func(buf []byte, lg *ledger, i int) []byte {
		q := &lg.reqs[i]
		buf = append(buf, `{"v":2,"id":"`...)
		buf = append(buf, lg.tag...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `","session":"`...)
		buf = append(buf, prefix...)
		buf = strconv.AppendInt(buf, int64(q.sess), 10)
		buf = append(buf, `","frames":`...)
		buf = append(buf, tl.payload[tl.at[int(q.item)%tl.cycle()]]...)
		return append(buf, "}\n"...)
	}
}
