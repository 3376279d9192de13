package peepul

// Transport abstraction: every connection a node makes or accepts goes
// through a Transport, so the same engine runs over real TCP in
// production and over an in-process fault-injection net (internal/
// faultnet) in chaos tests and benchmarks. The default is plain TCP.

import (
	"context"
	"net"
	"time"
)

// Transport is how a node reaches the network: Dial opens client sync
// connections, Listen binds the serving listener. The default is plain
// TCP; tests and benchmarks inject a fault net (internal/faultnet), and
// future authenticated transports plug in the same way. Implementations
// must be safe for concurrent use; Dial must honour ctx cancellation
// (node close aborts in-flight dials through it).
type Transport interface {
	Dial(ctx context.Context, addr string) (net.Conn, error)
	Listen(addr string) (net.Listener, error)
}

// TCPTransport is the default Transport: plain TCP with a bounded dial.
type TCPTransport struct {
	// DialTimeout bounds one dial attempt; zero selects the package
	// default (10s). Context cancellation still aborts earlier.
	DialTimeout time.Duration
}

// Dial opens a TCP connection to addr.
func (t TCPTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	timeout := t.DialTimeout
	if timeout <= 0 {
		timeout = dialTimeout
	}
	d := net.Dialer{Timeout: timeout}
	return d.DialContext(ctx, "tcp", addr)
}

// Listen binds a TCP listener on addr.
func (t TCPTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
