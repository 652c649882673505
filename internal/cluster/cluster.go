// Package cluster boots complete in-process clusters — a namenode plus N
// datanodes over a chosen transport — applies tc-style bandwidth plans,
// and injects faults. It is the harness behind the integration tests,
// smarth-cluster, and the benchmark's live (non-simulated) workloads.
package cluster

import (
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/datanode"
	"repro/internal/namenode"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// NamenodeAddr is the namenode's listen address on the cluster network.
const NamenodeAddr = "nn"

// Config describes a cluster to boot.
type Config struct {
	// NumDatanodes defaults to 3.
	NumDatanodes int
	// RackFor assigns racks; nil puts every datanode in "/rack-a".
	RackFor func(i int) string
	// Shaper, when set, shapes all links (nil = unshaped).
	Shaper *Shaper
	// NewStore builds each datanode's store; nil = in-memory stores.
	NewStore func(name string) (storage.Store, error)
	// Clock defaults to the system clock.
	Clock clock.Clock
	// HeartbeatInterval for datanodes and clients; defaults to 50 ms so
	// tests converge quickly (the paper's value is 3 s).
	HeartbeatInterval time.Duration
	// Expiry is the namenode's liveness window; defaults to 5 heartbeats.
	Expiry time.Duration
	// Seed fixes all randomness for reproducibility.
	Seed int64
	// WrapNetwork, when set, decorates the in-memory network before any
	// component uses it (e.g. faultnet.Wrap for fault-injection tests).
	WrapNetwork func(*transport.MemNetwork) transport.Network
	// ClientTimeouts is handed to every client created with NewClient
	// (a zero field takes the client default).
	ClientTimeouts client.Timeouts
	// DatanodeDataTimeout is passed through to each datanode's
	// DataTimeout knob (0 = datanode default).
	DatanodeDataTimeout time.Duration
	// NamenodeListen is the namenode's TCP listen address (StartTCP only;
	// default "127.0.0.1:0", a kernel-assigned loopback port).
	NamenodeListen string
	// Image, when set, restores a namespace checkpoint (see
	// Namenode.SaveImage) into the fresh namenode before any datanode
	// registers — the restart path.
	Image io.Reader
	// Obs, when set, is shared by the namenode, every datanode, and every
	// client created with NewClient: one registry and one tracer for the
	// whole in-process cluster. nil disables observability.
	Obs *obs.Obs
	// Logf receives diagnostics from all components.
	Logf func(format string, args ...any)
}

// Cluster is a running in-process cluster.
type Cluster struct {
	cfg Config
	// NNAddr is the address the namenode is bound to (NamenodeAddr in
	// memory; on TCP, with the port the kernel picked).
	NNAddr string
	// EffNet is the network components dial through: the in-memory
	// network or its WrapNetwork decoration (Start), or TCP (StartTCP).
	EffNet transport.Network
	// NN is the namenode.
	NN *namenode.Namenode
	// DNs are the datanodes, index i named "dn<i+1>".
	DNs []*datanode.Datanode

	clients []*client.Client
}

// DatanodeName returns the canonical name of datanode i (0-based).
func DatanodeName(i int) string { return fmt.Sprintf("dn%d", i+1) }

func applyDefaults(cfg Config) Config {
	if cfg.NumDatanodes <= 0 {
		cfg.NumDatanodes = 3
	}
	if cfg.RackFor == nil {
		cfg.RackFor = func(int) string { return "/rack-a" }
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	if cfg.Expiry <= 0 {
		cfg.Expiry = 5 * cfg.HeartbeatInterval
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(string) (storage.Store, error) { return storage.NewMemStore(), nil }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Start boots the cluster over the in-memory transport and waits until
// every datanode registered.
func Start(cfg Config) (*Cluster, error) {
	cfg = applyDefaults(cfg)

	var policy transport.LinkPolicy
	if cfg.Shaper != nil {
		policy = cfg.Shaper
	}
	net := transport.NewMemNetwork(policy)
	net.SetClock(cfg.Clock)
	var effNet transport.Network = net
	if cfg.WrapNetwork != nil {
		effNet = cfg.WrapNetwork(net)
	}
	c := &Cluster{cfg: cfg, EffNet: effNet}
	return boot(c, NamenodeAddr, func(i int) string { return DatanodeName(i) })
}

// StartTCP boots the same topology Start builds, but over real loopback
// TCP sockets with kernel-assigned ports (the namenode's may be fixed
// with NamenodeListen), transport.DefaultTCPTuning on every socket. It is
// also how cmd/smarth-cluster boots.
// WrapNetwork decorates the in-memory network only and is rejected; TCP
// links are never shaped, so a Shaper is rejected too.
func StartTCP(cfg Config) (*Cluster, error) {
	cfg = applyDefaults(cfg)
	if cfg.WrapNetwork != nil {
		return nil, fmt.Errorf("cluster: WrapNetwork is not supported over TCP")
	}
	if cfg.Shaper != nil {
		return nil, fmt.Errorf("cluster: Shaper is not supported over TCP")
	}
	if cfg.NamenodeListen == "" {
		cfg.NamenodeListen = "127.0.0.1:0"
	}
	c := &Cluster{cfg: cfg, EffNet: transport.NewTCPNetwork()}
	return boot(c, cfg.NamenodeListen, func(int) string { return "127.0.0.1:0" })
}

// boot starts the namenode and datanodes on c.EffNet. nnAddr and
// dnAddr give the listen addresses to request; the actual bound
// addresses (which differ on TCP, where the kernel picks ports) are
// what components advertise.
func boot(c *Cluster, nnAddr string, dnAddr func(i int) string) (*Cluster, error) {
	cfg := c.cfg
	nn := namenode.New(namenode.Options{Clock: cfg.Clock, Expiry: cfg.Expiry, Seed: cfg.Seed, Obs: cfg.Obs})
	if cfg.Image != nil {
		if err := nn.LoadImage(cfg.Image); err != nil {
			return nil, err
		}
	}
	nnListener, err := c.EffNet.Listen(nnAddr)
	if err != nil {
		return nil, err
	}
	go nn.Serve(nnListener)
	c.NN = nn
	c.NNAddr = nnListener.Addr()

	for i := 0; i < cfg.NumDatanodes; i++ {
		name := DatanodeName(i)
		store, err := cfg.NewStore(name)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: store for %s: %w", name, err)
		}
		dn, err := datanode.New(datanode.Options{
			Name:              name,
			Addr:              dnAddr(i),
			Rack:              cfg.RackFor(i),
			NamenodeAddr:      c.NNAddr,
			Network:           c.EffNet,
			Store:             store,
			Clock:             cfg.Clock,
			HeartbeatInterval: cfg.HeartbeatInterval,
			DataTimeout:       cfg.DatanodeDataTimeout,
			Obs:               cfg.Obs,
			Logf:              cfg.Logf,
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		if err := dn.Start(); err != nil {
			c.Stop()
			return nil, err
		}
		c.DNs = append(c.DNs, dn)
	}
	return c, nil
}

// NewClient creates a client attached to this cluster.
func (c *Cluster) NewClient(name string) (*client.Client, error) {
	cl, err := client.New(client.Options{
		Name:              name,
		NamenodeAddr:      c.NNAddr,
		Network:           c.EffNet,
		Clock:             c.cfg.Clock,
		HeartbeatInterval: c.cfg.HeartbeatInterval,
		Seed:              c.cfg.Seed + int64(len(c.clients)) + 1,
		Timeouts:          c.cfg.ClientTimeouts,
		Obs:               c.cfg.Obs,
		Logf:              c.cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	c.clients = append(c.clients, cl)
	return cl, nil
}

// Datanode returns the datanode with the given name, or nil.
func (c *Cluster) Datanode(name string) *datanode.Datanode {
	for _, dn := range c.DNs {
		if dn != nil && dn.Name() == name {
			return dn
		}
	}
	return nil
}

// KillDatanode crashes the named datanode, over either transport, with
// Datanode.Stop: its listener and every data connection it holds close,
// so its peers fail at once and dials to it are refused.
func (c *Cluster) KillDatanode(name string) {
	if dn := c.Datanode(name); dn != nil {
		dn.Stop()
	}
}

// Stop shuts everything down.
func (c *Cluster) Stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, dn := range c.DNs {
		if dn != nil {
			dn.Stop()
		}
	}
	c.NN.Close()
}
