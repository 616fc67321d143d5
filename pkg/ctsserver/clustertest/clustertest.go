// Package clustertest is the in-process harness for ctsd cluster mode: it
// assembles N ctsserver.Server members (each an httptest listener, all
// peer-wired to each other) behind one ctsserver.Gateway, and gives tests a
// kill switch per member, so end-to-end routing, peer cache reads and
// failover can be exercised — fault injection included — inside one test
// binary with no real processes or fixed ports.
package clustertest

import (
	"testing"

	"net/http/httptest"

	"repro/internal/charlib"
	"repro/internal/tech"
	"repro/pkg/ctsserver"
)

// Member is one in-process ctsd member.
type Member struct {
	// Server is the member's ctsserver instance.
	Server *ctsserver.Server
	// Client talks directly to this member (bypassing the gateway), which is
	// how tests model "a different entry point".
	Client *ctsserver.Client
	// URL is the member's base URL (its ring identity).
	URL string

	ts     *httptest.Server
	killed bool
}

// Cluster is N members behind a gateway.
type Cluster struct {
	// Members are the synthesis nodes, peer-wired to each other.
	Members []*Member
	// Gateway is the routing layer all Members sit behind.
	Gateway *ctsserver.Gateway
	// GatewayURL is the gateway's base URL.
	GatewayURL string
	// Client talks to the cluster through the gateway.
	Client *ctsserver.Client

	gwts *httptest.Server
}

// Options tunes the harness; the zero value is a fast 3-member cluster.
type Options struct {
	// Members is the member count (<= 0 selects 3).
	Members int
	// Server customizes each member's options after the defaults are set
	// (index, options); nil keeps the defaults.
	Server func(i int, o *ctsserver.Options)
}

// New assembles a running cluster and registers its teardown on t.  The
// members share one analytic library (construction stays cheap) and are
// peer-wired: every member consults the others' caches on local misses.
func New(t testing.TB, opts Options) *Cluster {
	t.Helper()
	if opts.Members <= 0 {
		opts.Members = 3
	}
	tc := tech.Default()
	lib := charlib.NewAnalytic(tc)

	c := &Cluster{}
	for i := 0; i < opts.Members; i++ {
		o := ctsserver.Options{Tech: tc, Library: lib, Workers: 2, QueueDepth: 32}
		if opts.Server != nil {
			opts.Server(i, &o)
		}
		s, err := ctsserver.New(o)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		m := &Member{Server: s, Client: ctsserver.NewClient(ts.URL), URL: ts.URL, ts: ts}
		c.Members = append(c.Members, m)
	}
	// Peer wiring needs every URL, so it happens after all listeners are up.
	urls := make([]string, len(c.Members))
	for i, m := range c.Members {
		urls[i] = m.URL
	}
	for i, m := range c.Members {
		peers := make([]string, 0, len(urls)-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		m.Server.SetPeers(peers)
	}

	gw, err := ctsserver.NewGateway(ctsserver.GatewayOptions{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	c.Gateway = gw
	c.gwts = httptest.NewServer(gw)
	c.GatewayURL = c.gwts.URL
	c.Client = ctsserver.NewClient(c.gwts.URL)

	t.Cleanup(func() {
		c.gwts.Close()
		gw.Close()
		for _, m := range c.Members {
			if !m.killed {
				m.ts.Close()
			}
		}
	})
	return c
}

// MemberAt returns the member serving the given base URL (as reported by
// Gateway.MemberFor or a MemberStatus), or nil.
func (c *Cluster) MemberAt(url string) *Member {
	for _, m := range c.Members {
		if m.URL == url {
			return m
		}
	}
	return nil
}

// Kill hard-stops a member: in-flight connections are severed (the SSE
// streams and forwards see a transport error, not a graceful close) and the
// listener goes away, exactly like a crashed process.  The member's Server
// object survives for post-mortem assertions, but nothing can reach it.
func (c *Cluster) Kill(m *Member) {
	if m.killed {
		return
	}
	m.killed = true
	m.ts.CloseClientConnections()
	m.ts.Close()
}

// Alive lists the members not yet killed.
func (c *Cluster) Alive() []*Member {
	out := make([]*Member, 0, len(c.Members))
	for _, m := range c.Members {
		if !m.killed {
			out = append(out, m)
		}
	}
	return out
}
