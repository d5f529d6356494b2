package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// rawConn is a keep-alive HTTP/1.1 connection with hand-rolled framing: a
// prebuilt request goes out, the status line and the body come back in a
// reused buffer. net/http's client costs ~50 allocations and several
// goroutine hops per request; on a two-core box shared with the system under
// test that would be a measurable share of every latency reported.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialRaw(addr string) (*rawConn, error) {
	rc := &rawConn{addr: addr, buf: make([]byte, 0, 8192)}
	return rc, rc.redial()
}

func (rc *rawConn) redial() error {
	rc.close()
	c, err := net.Dial("tcp", rc.addr)
	if err != nil {
		return err
	}
	rc.c = c
	rc.br = bufio.NewReaderSize(c, 8192)
	return nil
}

func (rc *rawConn) close() {
	if rc.c != nil {
		rc.c.Close()
		rc.c = nil
	}
}

// roundTrip writes one prebuilt request and reads the response. The returned
// body aliases the connection's buffer and is valid until the next call. A
// transport error leaves the connection redialled, so one failure is charged
// to one request.
func (rc *rawConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if rc.c == nil {
		if err := rc.redial(); err != nil {
			return 0, nil, err
		}
	}
	status, body, err = rc.exchange(req)
	if err != nil {
		rc.close()
	}
	return status, body, err
}

func (rc *rawConn) exchange(req []byte) (int, []byte, error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen, chunked, closing := -1, false, false
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	rc.buf = rc.buf[:0]
	switch {
	case chunked:
		if err := rc.readChunks(); err != nil {
			return 0, nil, err
		}
	case clen >= 0:
		if err := rc.readN(clen); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response with neither Content-Length nor chunked encoding")
	}
	if closing {
		rc.close()
	}
	return status, rc.buf, nil
}

// readN appends the next n bytes of the stream to rc.buf.
func (rc *rawConn) readN(n int) error {
	at := len(rc.buf)
	if cap(rc.buf) < at+n {
		rc.buf = append(make([]byte, 0, 2*(at+n)), rc.buf...)
	}
	rc.buf = rc.buf[:at+n]
	_, err := io.ReadFull(rc.br, rc.buf[at:])
	return err
}

func (rc *rawConn) readChunks() error {
	for {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(bytes.TrimSpace(size)), 16, 32)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// Trailers (none expected) end at the blank line.
			for {
				line, err := rc.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := rc.readN(int(n)); err != nil {
			return err
		}
		if _, err := rc.br.Discard(2); err != nil {
			return err
		}
	}
}

// rawRequest prebuilds the full HTTP/1.1 bytes of one POST; the body is the
// tail of the returned slice.
func rawRequest(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body))
	return append([]byte(head), body...)
}

// answer is one result object of a localize response.
type answer struct {
	rp, floor int
	version   uint64
	ok        bool // the object carried rp, floor and version and no error
}

// scanAnswers appends the result objects of a localize response to dst: the
// body itself for /v1/localize, every element of "results" for the batch
// endpoint. It looks fields up by key, so a response that gains fields or
// reorders them still checks.
func scanAnswers(dst []answer, body []byte, batch bool) ([]answer, error) {
	target := 1
	if batch {
		target = 2
	}
	depth, start := 0, -1
	inStr, esc := false, false
	for i, c := range body {
		switch {
		case esc:
			esc = false
		case inStr:
			if c == '\\' {
				esc = true
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '{':
			depth++
			if depth == target {
				start = i
			}
		case c == '}':
			if depth == target {
				if start < 0 {
					return dst, errors.New("unbalanced response")
				}
				dst = append(dst, parseAnswer(body[start:i+1]))
				start = -1
			}
			depth--
		}
	}
	if depth != 0 || inStr {
		return dst, errors.New("truncated response")
	}
	return dst, nil
}

func parseAnswer(obj []byte) answer {
	var a answer
	rp, ok1 := intField(obj, `"rp":`)
	floor, ok2 := intField(obj, `"floor":`)
	version, ok3 := intField(obj, `"version":`)
	a.rp, a.floor, a.version = int(rp), int(floor), uint64(version)
	a.ok = ok1 && ok2 && ok3 && version >= 0 && !bytes.Contains(obj, []byte(`"error":`))
	return a
}

// intField returns the integer that follows key in obj.
func intField(obj []byte, key string) (int64, bool) {
	at := bytes.Index(obj, []byte(key))
	if at < 0 {
		return 0, false
	}
	i := at + len(key)
	for i < len(obj) && obj[i] == ' ' {
		i++
	}
	j := i
	if j < len(obj) && obj[j] == '-' {
		j++
	}
	for j < len(obj) && obj[j] >= '0' && obj[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(obj[i:j]), 10, 64)
	return v, err == nil
}
