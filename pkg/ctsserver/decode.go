package ctsserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// maxPresize bounds the buffer a declared Content-Length reserves before
// any byte arrives, so a false header cannot claim all of maxRequestBytes.
const maxPresize = 8 << 20

// maxSkipDepth bounds the nesting of a value the hand path hands to
// encoding/json.  Deeper values fall back, which keeps the whole body
// inside encoding/json's own depth limit.
const maxSkipDepth = 64

// minSinkBytes is the length of the shortest sink json.Marshal writes,
// {"x":0,"y":0} and its comma; it bounds the presized sink count.
const minSinkBytes = len(`{"x":0,"y":0},`)

// The keys the hand path knows, in the order of their bits in its
// duplicate-key masks; requestField and sinkField give the field each one
// fills.  TestDecodeKeysMatchTags holds them to the json tags.
var (
	requestKeys = []string{"sinks", "name", "settings", "verify", "priority", "deadline", "baseJob"}
	sinkKeys    = []string{"name", "x", "y", "cap"}
)

func requestField(r *JobRequest, k int) any {
	return [...]any{&r.Sinks, &r.Name, &r.Settings, &r.Verify, &r.Priority, &r.Deadline, &r.BaseJob}[k]
}

func sinkField(s *Sink, k int) any {
	return [...]any{&s.Name, &s.X, &s.Y, &s.Cap}[k]
}

// readJobRequest reads a POST /v1/jobs body under maxRequestBytes and
// decodes it; Server and Gateway both submit through it.  A read failure
// or an undecodable body is a 400 bad-request.
func readJobRequest(w http.ResponseWriter, r *http.Request) (JobRequest, *APIError) {
	// The buffer is presized from Content-Length.  ReadFrom grows one with
	// less than MinRead free, so the Read that reports EOF needs MinRead to
	// spare.
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), maxPresize)) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var req JobRequest
	if err == nil {
		req, err = decodeJobRequest(body.Bytes())
	}
	if err != nil {
		return JobRequest{}, &APIError{HTTPStatus: http.StatusBadRequest, Code: ErrBadRequest,
			Message: fmt.Sprintf("decoding request: %v", err)}
	}
	return req, nil
}

// decodeJobRequest decodes a body exactly as json.Unmarshal into JobRequest
// does, value and error alike: the hand path takes the shapes clients
// send, and every other body goes to json.Unmarshal itself.
func decodeJobRequest(data []byte) (JobRequest, error) {
	if req, ok := parseJobRequest(data); ok {
		return req, nil
	}
	var req JobRequest
	err := json.Unmarshal(data, &req)
	return req, err
}

// parseJobRequest is the hand path.  It takes one object with exact-case
// keys, none twice, whose "sinks" is null or an array of sink objects
// with a plain name and JSON numbers, each converted by the
// strconv.ParseFloat call encoding/json makes; every other key's value
// goes to encoding/json at its offset.  It reports false on any other
// body, a failed value included, and never errs itself.
func parseJobRequest(data []byte) (JobRequest, bool) {
	var req JobRequest
	p := parser{b: data}
	ok := p.object(requestKeys, func(k int) bool {
		switch f := requestField(&req, k).(type) {
		case *[]Sink:
			return p.sinks(f)
		default:
			v, ok := p.value()
			return ok && json.Unmarshal(v, f) == nil
		}
	})
	p.space()
	return req, ok && p.i == len(p.b)
}

// parser is a cursor over a request body.
type parser struct {
	b []byte
	i int
}

// space consumes whitespace.
func (p *parser) space() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	p.i = i
}

// skip consumes c if it is the next byte.
func (p *parser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// eat consumes c if it is the next byte after whitespace.
func (p *parser) eat(c byte) bool {
	p.space()
	return p.skip(c)
}

// digits consumes a run of one or more decimal digits.
func (p *parser) digits() bool {
	b, i := p.b, p.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	ok := i > p.i
	p.i = i
	return ok
}

// object reads an object whose keys are all in keys, none twice, calling
// member to read the value of keys[k].
func (p *parser) object(keys []string, member func(k int) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.str()
		k := -1
		for i, name := range keys {
			if string(key) == name {
				k = i
				break
			}
		}
		if !ok || k < 0 || seen&(1<<k) != 0 || !p.eat(':') || !member(k) {
			return false
		}
		seen |= 1 << k
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// sinks reads the "sinks" value: null, or an array of sink objects.
func (p *parser) sinks(dst *[]Sink) bool {
	p.space()
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += len("null")
		return true
	}
	if !p.eat('[') {
		return false
	}
	rest := p.b[p.i:]
	out := make([]Sink, 0, min(bytes.Count(rest, []byte("{")), len(rest)/minSinkBytes))
	for !p.eat(']') {
		if len(out) > 0 && !p.skip(',') {
			return false
		}
		out = append(out, Sink{})
		s := &out[len(out)-1]
		if !p.object(sinkKeys, func(k int) bool {
			var ok bool
			switch f := sinkField(s, k).(type) {
			case *string:
				var name []byte
				name, ok = p.str()
				*f = string(name)
			case *float64:
				*f, ok = p.number()
			}
			return ok
		}) {
			return false
		}
	}
	*dst = out
	return true
}

// str reads a string with no escape, control or non-ASCII byte: the
// strings whose bytes are their value.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	b := p.b
	for i := p.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := b[p.i:i]
			p.i = i + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number reads a number in JSON's grammar and converts it as encoding/json
// converts one for a float64 field.
func (p *parser) number() (float64, bool) {
	p.space()
	start := p.i
	p.skip('-')
	if !p.skip('0') && !p.digits() {
		return 0, false
	}
	if p.skip('.') && !p.digits() {
		return 0, false
	}
	if p.skip('e') || p.skip('E') {
		_ = p.skip('+') || p.skip('-')
		if !p.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return v, err == nil
}

// value reads past one value of any kind and returns its bytes unchecked,
// up to the comma, brace or space that ends it: encoding/json checks them
// when it decodes them.
func (p *parser) value() ([]byte, bool) {
	p.space()
	start, depth := p.i, 0
	for ; p.i < len(p.b); p.i++ {
		switch p.b[p.i] {
		case '"':
			for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
				if p.b[p.i] == '\\' {
					p.i++
				}
			}
		case '{', '[':
			if depth++; depth > maxSkipDepth {
				return nil, false
			}
		case '}', ']':
			if depth == 0 {
				return p.b[start:p.i], p.i > start
			}
			depth--
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return p.b[start:p.i], p.i > start
			}
		}
	}
	return nil, false
}
