package main

import (
	"bytes"
	"net/http"

	"cote/bench"
)

// respWriter is the in-memory http.ResponseWriter the client reuses for
// every request.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(status int)      { w.status = status }
func (w *respWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

// client is the benchmark's one closed-loop client. It calls the server's
// handler in process: no sockets, because loopback TCP and net/http's
// connection handling cost more than a warm estimate and belong to the
// kernel, not to this repository (the traced run reports what they add as
// http.loopback_us). The request, its body reader and the response writer
// are reused, so the client's own cost per request is constant and nearly
// free of allocations (harness.allocs_per_req).
type client struct {
	h   http.Handler
	rw  respWriter
	b   body
	req *http.Request
}

func newClient(h http.Handler, path string) *client {
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		panic(err) // the paths are constants of this package
	}
	c := &client{h: h, req: req}
	c.rw.hdr = make(http.Header)
	return c
}

// do sends one request and returns the status and the response body, which
// is valid until the next call.
func (c *client) do(rq bench.Request) (int, []byte) {
	clear(c.rw.hdr)
	c.rw.status = http.StatusOK
	c.rw.buf.Reset()
	c.b.Reset(rq.Body)
	c.req.Body = &c.b
	c.req.ContentLength = int64(len(rq.Body))
	c.h.ServeHTTP(&c.rw, c.req)
	return c.rw.status, c.rw.buf.Bytes()
}
