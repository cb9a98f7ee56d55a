package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the child server, used
// by exactly one goroutine. The harness writes requests by hand and lets
// net/http parse the responses: no transport pool, no hidden goroutines,
// so the one connection of a run is one socket and one generator goroutine.
type conn struct {
	host string
	c    net.Conn
	br   *bufio.Reader
	req  []byte // scratch for the request head + body
	body []byte // scratch for the response body; valid until the next do
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort; the default is already on
	}
	return &conn{host: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// connect dials the server and makes one liveness request on the new
// connection.
func connect(addr string) (*conn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	status, _, err := c.do("GET", "/healthz?probe=live", nil)
	if err == nil && status != 200 {
		err = fmt.Errorf("GET /healthz?probe=live: status %d", status)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and reads the whole response. The returned body
// aliases the connection's scratch buffer.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	r := c.req[:0]
	r = append(r, method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.host...)
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.c.Write(r); err != nil {
		return 0, nil, fmt.Errorf("%s %s: write: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	c.body, err = readAllInto(c.body[:0], resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: body: %w", method, path, err)
	}
	return resp.StatusCode, c.body, nil
}

// readAllInto is io.ReadAll into a caller-owned buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
