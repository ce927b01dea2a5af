// Package machine describes the simulated CC-NUMA target: an SGI
// Origin-2000-like system of dual-processor nodes connected in a hypercube
// (paper §2, Figure 1), plus the instruction cycle-cost model of the MIPS
// R10000 the paper's optimizations are calibrated against (§7: 35-cycle
// integer divide, 11-cycle floating-point divide).
//
// Two stock configurations are provided: Origin2000, with the paper's
// published parameters, and Scaled, a 1/16-size machine used by the
// experiment harness so that the paper's 400 MB workloads can be simulated
// in seconds while preserving the ratios that drive every reported result
// (portion size : page size, dataset : aggregate cache, dataset : node
// memory). See DESIGN.md "Scaling".
package machine

import "fmt"

// Config is the full description of the simulated machine.
type Config struct {
	Name string

	// Processors and topology.
	NProcs        int // logical processors in use
	ProcsPerNode  int // Origin-2000: 2 R10000s share a node memory
	ClockMHz      int // 195 MHz R10000
	NodeMemBytes  int // per-node main memory capacity (paper: ~4 GB/node hardware, but only ~250 MB was free per node in the LU runs)
	PageBytes     int // OS page size (16 KB on IRIX/Origin-2000)
	PageColorBits int // number of physical page colors the OS maintains

	// Primary (on-chip) data cache.
	L1Bytes    int
	L1LineSize int
	L1Assoc    int

	// Secondary (off-chip) unified cache.
	L2Bytes    int
	L2LineSize int
	L2Assoc    int

	// TLB.
	TLBEntries int
	TLBMissCyc int

	// Latencies, in processor cycles.
	L1HitCyc      int // load-to-use on L1 hit
	L2HitCyc      int // L1 miss, L2 hit
	LocalMemCyc   int // L2 miss to local node memory (~70 on Origin)
	RemoteBaseCyc int // L2 miss to a 1-hop remote node (~110)
	RemoteHopCyc  int // extra cycles per additional hop (caps near 180)
	RemoteMaxCyc  int
	CoherenceCyc  int // extra cycles when the directory must invalidate/intervene

	// Node memory bandwidth model: a node's memory can begin servicing a
	// new cache line every MemServiceCyc cycles; extra concurrent
	// requests queue. This is what makes "all data on one node" a
	// bottleneck (paper §8.2).
	MemServiceCyc int

	// Synchronization.
	BarrierBaseCyc int // fixed cost of the implicit doacross barrier
	BarrierPerProc int // per-participant cost
	ForkCyc        int // cost to dispatch a parallel region

	// Instruction costs (cycles). Loads/stores add memory latency on
	// top of IntOpCyc.
	IntOpCyc  int // simple ALU op
	IntMulCyc int
	IntDivCyc int // 35 on R10000, not pipelined (paper §7)
	FpOpCyc   int
	FpMulCyc  int
	FpDivCyc  int // 11 on R10000 (paper §7.3)
	BranchCyc int
}

// Validate sanity-checks the configuration.
func (c *Config) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.NProcs >= 1, "NProcs >= 1"},
		{c.ProcsPerNode >= 1, "ProcsPerNode >= 1"},
		{c.PageBytes > 0 && c.PageBytes&(c.PageBytes-1) == 0, "PageBytes power of two"},
		{c.L1LineSize > 0 && c.L1LineSize&(c.L1LineSize-1) == 0, "L1LineSize power of two"},
		{c.L2LineSize > 0 && c.L2LineSize&(c.L2LineSize-1) == 0, "L2LineSize power of two"},
		{c.L1Bytes >= c.L1LineSize*c.L1Assoc, "L1 size fits geometry"},
		{c.L2Bytes >= c.L2LineSize*c.L2Assoc, "L2 size fits geometry"},
		{c.L1Assoc >= 1 && c.L2Assoc >= 1, "associativity >= 1"},
		{c.TLBEntries >= 1, "TLBEntries >= 1"},
		{c.NodeMemBytes >= c.PageBytes, "node memory holds at least one page"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("machine %q: invalid config: %s", c.Name, ch.msg)
		}
	}
	return nil
}

// NNodes returns the number of nodes needed for NProcs processors.
func (c *Config) NNodes() int {
	return (c.NProcs + c.ProcsPerNode - 1) / c.ProcsPerNode
}

// NodeOf returns the node housing processor p.
func (c *Config) NodeOf(p int) int { return p / c.ProcsPerNode }

// Hops returns the hypercube hop distance between two nodes (Hamming
// distance of the node ids, as in the Origin's bristled hypercube).
func Hops(a, b int) int {
	x := uint(a ^ b)
	h := 0
	for x != 0 {
		h += int(x & 1)
		x >>= 1
	}
	return h
}

// RemoteLatency returns the L2-miss-to-memory latency for a processor on
// node `from` hitting memory on node `to`.
func (c *Config) RemoteLatency(from, to int) int {
	if from == to {
		return c.LocalMemCyc
	}
	l := c.RemoteBaseCyc + (Hops(from, to)-1)*c.RemoteHopCyc
	if l > c.RemoteMaxCyc {
		l = c.RemoteMaxCyc
	}
	return l
}

// Seconds converts simulated cycles to seconds at the configured clock.
func (c *Config) Seconds(cycles int64) float64 {
	return float64(cycles) / (float64(c.ClockMHz) * 1e6)
}

// Origin2000 returns the paper's machine: 195 MHz R10000s, two per node,
// 32 KB/32 B L1, 4 MB/128 B L2 (the benchmark system, §8), 16 KB pages,
// 64-entry TLB, ~70-cycle local and 110–180-cycle remote miss latencies
// (§2).
func Origin2000(nprocs int) *Config {
	return &Config{
		Name:          "origin2000",
		NProcs:        nprocs,
		ProcsPerNode:  2,
		ClockMHz:      195,
		NodeMemBytes:  250 << 20, // free memory observed in the LU runs (§8.1)
		PageBytes:     16 << 10,
		PageColorBits: 5,

		L1Bytes: 32 << 10, L1LineSize: 32, L1Assoc: 2,
		L2Bytes: 4 << 20, L2LineSize: 128, L2Assoc: 2,

		TLBEntries: 64, TLBMissCyc: 60,

		L1HitCyc: 1, L2HitCyc: 10,
		LocalMemCyc: 70, RemoteBaseCyc: 110, RemoteHopCyc: 15, RemoteMaxCyc: 180,
		CoherenceCyc:  40,
		MemServiceCyc: 24,

		BarrierBaseCyc: 400, BarrierPerProc: 40, ForkCyc: 800,

		IntOpCyc: 1, IntMulCyc: 5, IntDivCyc: 35,
		FpOpCyc: 2, FpMulCyc: 2, FpDivCyc: 11,
		BranchCyc: 1,
	}
}

// ScaleFactor is the linear capacity scaling applied by Scaled.
const ScaleFactor = 16

// Scaled returns the 1/16-capacity machine used by the experiment harness:
// caches, pages and node memory shrink by ScaleFactor while line sizes,
// associativity and all latencies stay at Origin-2000 values, so workloads
// scaled down by the same factor see the paper's capacity ratios.
func Scaled(nprocs int) *Config {
	c := Origin2000(nprocs)
	c.Name = "origin2000-scaled16"
	c.NodeMemBytes /= ScaleFactor
	c.PageBytes /= ScaleFactor // 1 KB
	c.L1Bytes /= ScaleFactor   // 2 KB
	c.L2Bytes /= ScaleFactor   // 256 KB
	if c.TLBEntries > 64 {
		c.TLBEntries = 64
	}
	return c
}

// Tiny returns a very small machine for unit tests: everything is minimal
// so cache and page effects show up with toy arrays.
func Tiny(nprocs int) *Config {
	c := Origin2000(nprocs)
	c.Name = "tiny"
	c.NodeMemBytes = 1 << 20
	c.PageBytes = 256
	c.L1Bytes = 512
	c.L1LineSize = 32
	c.L2Bytes = 4 << 10
	c.L2LineSize = 64
	c.TLBEntries = 8
	return c
}

// Preset maps a -machine / request spelling to the constructor of that
// stock configuration.
func Preset(name string) (func(nprocs int) *Config, error) {
	switch name {
	case "origin2000":
		return Origin2000, nil
	case "scaled":
		return Scaled, nil
	case "tiny":
		return Tiny, nil
	}
	return nil, fmt.Errorf("unknown machine %q (accepted: origin2000, scaled, tiny)", name)
}
