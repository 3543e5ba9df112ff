package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/zoom/client"
)

// requestTimeout bounds one request, so a hung server fails the run and
// does not hang it.
const requestTimeout = 30 * time.Second

// conn is one keep-alive HTTP/1.1 connection driven by hand: a request is
// bytes written to the socket and a response is parsed off it. There is no
// http.Transport between the benchmark and the server, so what is timed is
// the server and the wire.
type conn struct {
	addr string // host:port
	c    net.Conn
	in   countingReader
	br   *bufio.Reader
}

// countingReader counts the bytes read off the socket: headers and chunk
// framing as well as the body.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// newConn prepares a connection to a base URL such as http://127.0.0.1:80.
// It dials on first use.
func newConn(base string) *conn {
	return &conn{addr: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close() // nothing is pending on a connection we abandon
		c.c = nil
	}
}

// reply is what the benchmark looks at in a response.
type reply struct {
	status int
	wire   int64 // bytes read off the socket for this response
	body   int64
	traced bool // the response carried X-Zoom-Trace-Id
}

// ok reports whether a reply is an answer: 200, non-empty, and traced.
func (r reply) ok() bool { return r.status == http.StatusOK && r.body > 0 && r.traced }

// do sends one rendered request and reads the whole response. The body is
// copied into keep when keep is not nil, and otherwise discarded unread by
// anything but the socket. Any error closes the connection; the next call
// dials again.
func (c *conn) do(wire []byte, keep *bytes.Buffer) (reply, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return reply{}, err
		}
		c.c = nc
		c.in = countingReader{r: nc}
		c.br = bufio.NewReaderSize(&c.in, 64<<10)
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return reply{}, err
	}
	before := c.in.n
	if _, err := c.c.Write(wire); err != nil {
		c.close()
		return reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return reply{}, err
	}
	var dst io.Writer = io.Discard
	if keep != nil {
		keep.Reset()
		dst = keep
	}
	n, err := io.Copy(dst, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		c.close()
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, wire: c.in.n - before, body: n,
		traced: resp.Header.Get(client.TraceIDHeader) != ""}
	if resp.Close {
		c.close()
	}
	return r, nil
}

// getRequest renders a GET for path.
func getRequest(path string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: zoom\r\n\r\n", path))
}

// get fetches path from base on a connection of its own.
func get(base, path string) ([]byte, error) {
	c := newConn(base)
	defer c.close()
	var body bytes.Buffer
	r, err := c.do(getRequest(path), &body)
	if err != nil {
		return nil, fmt.Errorf("GET %s%s: %w", base, path, err)
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d: %s", base, path, r.status, bytes.TrimSpace(body.Bytes()))
	}
	return body.Bytes(), nil
}
