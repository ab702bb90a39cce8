package fault

import (
	"io"
	"net/http"
)

// Transport wraps an http.RoundTripper with fault injection at the network
// sites: NetDialErr fails the request before any bytes move (the shape of a
// refused connection or a daemon that is down), NetRespTruncated lets the
// request succeed but cuts the response body mid-stream, so readers see an
// unexpected EOF exactly as they would when the daemon dies mid-reply.
// Both are transport-level failures — the client's retry logic must absorb
// them, which is the point. Arm it as the Transport of the http.Client a
// client.Config carries.
type Transport struct {
	Inner http.RoundTripper // nil means http.DefaultTransport
	Inj   *Injector
}

func (t Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.Inj.Err(NetDialErr, req.Method+" "+req.URL.Host+req.URL.Path); err != nil {
		// The request never left: close the body like net/http would.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Body != nil && t.Inj.Hit(NetRespTruncated) {
		// Deliver roughly half the declared body, then fail the stream. With
		// an unknown length, fail after a small prefix. Never a clean EOF:
		// a truncation must read as a broken connection, not a short body.
		limit := int64(64)
		if resp.ContentLength > 1 {
			limit = resp.ContentLength / 2
		}
		resp.Body = &truncatedBody{inner: resp.Body, left: limit}
	}
	return resp, nil
}

// truncatedBody reads up to left bytes from inner, then returns
// io.ErrUnexpectedEOF forever.
type truncatedBody struct {
	inner io.ReadCloser
	left  int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.inner.Read(p)
	b.left -= int64(n)
	if err == nil && b.left <= 0 {
		err = io.ErrUnexpectedEOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }
