package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// get fetches url and returns its body.
func get(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// TestServeDrainsBeforeShutdown pins serve's lifecycle: the addr file names
// the bound address and requests are served; cancelling the context runs
// drain while the listener still answers (clients poll their jobs during a
// drain); then serve returns nil and the address refuses connections.
func TestServeDrainsBeforeShutdown(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok") //nolint:errcheck
	})
	client := &http.Client{Timeout: 5 * time.Second}
	var addr string
	drainGot := make(chan string, 1)
	drain := func() {
		body, err := get(client, "http://"+addr+"/")
		if err != nil {
			body = "error: " + err.Error()
		}
		drainGot <- body
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, "127.0.0.1:0", addrFile, handler, slog.New(slog.DiscardHandler), drain)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		select {
		case err := <-served:
			t.Fatalf("serve returned before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("addr file never written")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if body, err := get(client, "http://"+addr+"/"); err != nil || body != "ok" {
		t.Fatalf("GET before cancel: %q, %v", body, err)
	}

	cancel()
	select {
	case body := <-drainGot:
		if body != "ok" {
			t.Fatalf("GET from inside drain: %q, want ok", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never ran after cancel")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after serve returned", addr)
	}
}
