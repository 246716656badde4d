// Command eyeorg-router fronts a multi-node Eyeorg cluster: it maps
// every API request to the node owning the targeted campaign and
// either proxies it there or answers a redirect for the client to
// follow.
//
// Usage:
//
//	eyeorg-router -addr :8080 -nodes a=http://10.0.0.1:8081,b=http://10.0.0.2:8081
//	eyeorg-router -addr :8080 -mode redirect -nodes a=http://node-a:8081,b=http://node-b:8081
//
// Campaign ownership is decided by a consistent-hash ring with virtual
// nodes over campaign IDs (-vnodes points per node), so the router and
// every node derive the identical partition from the member list alone
// — no coordination service. Campaign creates are always proxied: the
// router mints the campaign ID itself (under its own "cr." tag) so the
// owner is known before the create lands anywhere. Everything else is
// proxied (-mode proxy, the default) or redirected with 307 (-mode
// redirect), which preserves method and body, so clients replay POSTs
// verbatim at the owning node.
//
// Each node behind the router is an eyeorg-server started with
// -node-id/-node-base/-peers matching this member list; a node answers
// 307 for campaigns it has handed off, and in proxy mode the router
// follows those fences server-side and pins the new owner. The
// router's own counters — requests per node, fence hops followed,
// unroutable requests — are served on GET /metrics.
//
// The router does not health-check or route around a node: while a
// node is down its campaigns answer 502 (proxy mode) and every other
// node's keep serving; the node recovers them from its data directory
// when it restarts.
//
// The router holds no durable state: restarting it loses only warm
// routing tables, which rebuild from the ring and node responses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/eyeorg/eyeorg/internal/cluster"
)

// config is the parsed command line.
type config struct {
	addr, mode, nodes, logFormat string
	vnodes                       int
}

// newFlags declares the command line. docs/OPERATIONS.md tabulates it,
// and TestDocsFlagsRegistered holds the two together.
func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("eyeorg-router", flag.ExitOnError)
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.mode, "mode", "proxy", "dispatch mode: proxy (forward server-side, follow fences) or redirect (307 to the owning node)")
	fs.StringVar(&c.nodes, "nodes", "", "cluster members as id=baseURL pairs, comma-separated (required)")
	fs.IntVar(&c.vnodes, "vnodes", 0, "virtual-node points per member on the hash ring (0 = default)")
	fs.StringVar(&c.logFormat, "log-format", "text", "log record format: text or json")
	return fs, c
}

func main() {
	fs, c := newFlags()
	fs.Parse(os.Args[1:]) // ExitOnError: a bad command line never returns

	logger, err := newLogger(os.Stderr, c.logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eyeorg-router: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	members, err := parseMembers(c.nodes)
	if err != nil {
		logger.Error("invalid -nodes", "err", err)
		os.Exit(2)
	}
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	router, err := cluster.NewRemoteRouter(c.mode, cluster.NewRing(ids, c.vnodes), members)
	if err != nil {
		logger.Error("building router", "err", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		logger.Error("listening failed", "addr", c.addr, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           router.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	logger.Info("routing the Eyeorg API", "addr", ln.Addr().String(), "mode", c.mode, "nodes", ids)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("router exited", "err", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("shutting down on signal", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("shutdown failed", "err", err)
		}
	}
}

// parseMembers parses "a=http://host1,b=http://host2" into a member
// map, rejecting duplicates and empty pieces.
func parseMembers(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("at least one id=baseURL member is required")
	}
	members := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, base, ok := strings.Cut(part, "=")
		id, base = strings.TrimSpace(id), strings.TrimSpace(base)
		if !ok || id == "" || base == "" {
			return nil, fmt.Errorf("member %q is not id=baseURL", part)
		}
		if _, dup := members[id]; dup {
			return nil, fmt.Errorf("duplicate node ID %q", id)
		}
		members[id] = base
	}
	if len(members) == 0 {
		return nil, errors.New("at least one id=baseURL member is required")
	}
	return members, nil
}

// newLogger builds the process logger in the requested record format.
func newLogger(w *os.File, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
