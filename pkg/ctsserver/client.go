package ctsserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/pkg/cts"
)

// Client talks to a ctsd instance.  The zero HTTPClient selects
// http.DefaultClient; streaming requests rely on the context for their
// lifetime, so the client's Timeout should stay zero.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8155".
	BaseURL string
	// HTTPClient overrides the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the server root URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out; non-2xx
// responses come back as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("ctsserver: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// decodeAPIError decodes a non-2xx answer's error envelope, falling back to
// a bad-request error quoting the body when it carries none.
func decodeAPIError(status int, data []byte) *APIError {
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error != nil {
		eb.Error.HTTPStatus = status
		return eb.Error
	}
	return &APIError{HTTPStatus: status, Code: ErrBadRequest,
		Message: fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(data))}
}

// Submit posts a job.  The returned status is terminal right away on a
// cache hit; otherwise it reports the queued job's id for Stream/Job calls.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel cancels a job and returns its status after the cancellation
// request took effect (a running job may still report "running" until its
// context unwinds).
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stats fetches the server statistics.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health fetches the server health; a draining server answers 503, which
// comes back as an *APIError alongside the decoded body.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Stream subscribes to a job's event stream and blocks until the job
// reaches a terminal state, returning the final status from the "done"
// event.  Every "flow" event is decoded and handed to onEvent (which may be
// nil); the full history is replayed first, so streaming a finished job
// yields all its events and returns immediately after.
func (c *Client) Stream(ctx context.Context, id string, onEvent func(cts.WireEvent)) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return nil, decodeAPIError(resp.StatusCode, data)
	}

	var final *JobStatus
	err = readSSE(resp.Body, func(event string, data []byte) error {
		switch event {
		case EventTypeFlow:
			if onEvent == nil {
				return nil
			}
			var we cts.WireEvent
			if err := json.Unmarshal(data, &we); err != nil {
				return fmt.Errorf("ctsserver: decoding flow event: %w", err)
			}
			onEvent(we)
		case EventTypeDone:
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return fmt.Errorf("ctsserver: decoding done event: %w", err)
			}
			final = &st
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if final == nil {
		// The server ended the stream without a terminal event (shutdown or
		// a dropped connection); surface the context error when that is the
		// cause.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("ctsserver: event stream for %s ended without a terminal event", id)
	}
	return final, nil
}

// readSSE parses a Server-Sent Events stream, invoking fn for every
// dispatched event.  It understands the subset writeEvent emits: "id",
// "event" and single-line "data" fields, an event ending at a blank line.
// An event cut off by the end of the stream is dropped, not dispatched.  A
// line may be at most maxRequestBytes long: the longest line is the "done"
// event's status with the whole Result, about 1 KB even for 4,096 sinks.
func readSSE(r io.Reader, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxRequestBytes)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "" && data == nil {
				continue
			}
			if err := fn(event, data); err != nil {
				return err
			}
			event, data = "", nil
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	return nil
}
