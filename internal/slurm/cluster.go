package slurm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/simclock"
	"ecosched/internal/workload"
)

// Per-partition metric name prefixes; the partition name is appended
// (chronus.cluster.partition.queue_depth.batch, ...).
const (
	metricPartQueuePrefix  = "chronus.cluster.partition.queue_depth."
	metricPartOccPrefix    = "chronus.cluster.partition.occupancy."
	metricPartEnergyPrefix = "chronus.cluster.partition.energy_kj."
	metricPartDonePrefix   = "chronus.cluster.partition.jobs_completed."
)

// partition is the controller's one scheduling domain: a named pending
// queue with its order and node pool, stepped under the controller's
// clock. A multi-partition cluster is one controller per partition.
type partition struct {
	name string
	conf Partition
	// multifactor orders the queue by priority each pass; otherwise it
	// is FIFO: pending stays ID-ordered and never sorts.
	multifactor bool
	// maxCores is the widest node in the pool, the size factor's scale.
	maxCores int
	nodes    []*nodeD
	// classes holds one node of each distinct shape in the pool (cores,
	// threads a core, calibration, ladder), for the O(1)-per-class
	// submission checks fits and fitsBudget.
	classes []*nodeD
	// freeBits is a bitmap over the node slots (nodeD.idx, p.nodes
	// order, which is construction order): bit set = node idle. Scanning
	// set bits in slot order reproduces the first-fit placement order of
	// a linear node scan. freeN caches the population count for the "any
	// node idle?" fast checks.
	freeBits []uint64
	freeN    int
	// pending is the queue's live window into queue, its whole backing
	// array: a pass slides the window forward as jobs start off its
	// front, and enqueue moves it back to the array's start.
	pending []*Job
	queue   []*Job
	busy    int // running jobs occupying this partition's nodes
	// prios/sorter are orderKeyed's per-pass key buffer and sorter.
	prios  []float64
	sorter prioSorter

	queueGauge  *metrics.Gauge
	occGauge    *metrics.Gauge
	energyGauge *metrics.Gauge
	doneCount   *metrics.Counter

	// ctl is the controller the partition belongs to: a job's completion
	// event reaches it through the job's node (completion).
	ctl *Controller

	// wakeArmed/wakeAt are the partition's pending wake (armWake): the
	// earliest instant a queued job asked to be looked at again. woken
	// marks the pass a wake runs (wakeAction, skipMask).
	wakeArmed, woken bool
	wakeAt           int64 // tick

	// Cluster-policy state (energy.go), maintained only under a policy:
	// the power budget and the modelled draw (idle floor included) with
	// its run peak.
	capW      float64
	drawW     float64
	peakDrawW float64
	// pairable is the pairable-primary index place walks: per primary
	// profile, a bitmap over the freeBits slots (nil unless the policy
	// pairs). stable is the settled record's part of it: pairable as the
	// last pass that recorded left it, less every bit reindex has cleared
	// since — the hosts each job that record kept on place's refusal
	// would still be refused by.
	pairable, stable [2][]uint64

	// epoch counts changes to what takeIdle, fit and place read: reindex
	// (so charge and release — every change to the free nodes, the draw
	// ledger or the pairable index) bumps it. settled is schedulePart's
	// record of the queue it left on a FIFO partition under a policy that
	// pairs (DESIGN §7, "The settled prefix"): its first n
	// jobs, pending[:n], with kind[i] the kind of verdict that kept
	// pending[i], dense beside the queue so that a pass reads them
	// without touching the jobs. While tick stays before release (no
	// later than the earliest release tick among them that hold still
	// waits for; math.MaxInt64 = none) and the deferral signal on the
	// side of its threshold it was on (high), a later pass skips those
	// whose verdict the live state repeats (skipMask: every kind while
	// the epoch is the one the recording pass began at) and asks the
	// rest. kinds counts them per verdict kind (kinds[keptFit] were
	// refused by fit), present is the set of kinds it counts (bit k while
	// kinds[k] > 0); minCapW is the smallest placement delta the budget
	// refused any of them beside a stable host (+Inf: none). n = 0 is no
	// record; kind is a buffer as long as the longest queue a pass has
	// recorded from. next and asked are a pass by kind's (byKind): its
	// search positions and the record jobs it asked per recorded kind.
	epoch   uint64
	settled settledRecord
}

// settledRecord is a partition's settled record (partition.settled).
type settledRecord struct {
	n           int
	kinds       [verdictKinds]int
	epoch       uint64
	release     int64
	minCapW     float64
	high        bool
	present     uint8
	kind        []byte
	next, asked [verdictKinds]int
}

// takeIdle claims the lowest-slotted idle node that satisfies the
// request, clearing its bit, or returns nil. The caller hands the
// claimed node back through refreeNode unless a job starts on it, and
// again when that job leaves.
func (p *partition) takeIdle(desc *JobDesc) *nodeD {
	for w, word := range p.freeBits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			n := p.nodes[w<<6|b]
			if nodeSatisfies(n, desc) {
				p.freeBits[w] &^= 1 << uint(b)
				p.freeN--
				return n
			}
		}
	}
	return nil
}

// addNode appends a node to the pool, recording its capability class
// and its bitmap slot.
func (p *partition) addNode(n *nodeD) {
	n.part, n.idx = p, len(p.nodes)
	p.nodes = append(p.nodes, n)
	p.maxCores = max(p.maxCores, n.spec.Cores)
	if len(p.nodes) > len(p.freeBits)*64 {
		p.freeBits = append(p.freeBits, 0)
	}
	for _, cl := range p.classes {
		if cl.spec.Cores == n.spec.Cores && cl.spec.ThreadsPerCore == n.spec.ThreadsPerCore &&
			cl.hw.Calibration() == n.hw.Calibration() && slices.Equal(cl.spec.FrequenciesKHz, n.spec.FrequenciesKHz) {
			return
		}
	}
	p.classes = append(p.classes, n)
}

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

// unknownWorkload runs a job whose description has neither a Shape nor
// a registered binary.
var unknownWorkload = workload.Sleep("unknown", time.Minute)

type clusterConfig struct {
	nodes       []*hw.Node
	multifactor bool
	aggregate   bool
	batched     bool
	usageSink   func(uid uint32, cpuSeconds float64)
	policy      EnergyPolicy
}

// WithNodes adds nodes to the partition's pool, in first-fit order.
func WithNodes(nodes ...*hw.Node) ClusterOption {
	return func(cfg *clusterConfig) { cfg.nodes = append(cfg.nodes, nodes...) }
}

// WithMultifactor orders the partition's queue by multifactor priority
// (priority.go) instead of submission order.
func WithMultifactor() ClusterOption {
	return func(cfg *clusterConfig) { cfg.multifactor = true }
}

// WithAggregateAccounting switches the controller to aggregate-only
// accounting: finished jobs fold into running totals (Accounting's
// Totals) and are retired from memory instead of being kept as
// per-job records — the mode that lets a single run absorb millions
// of submissions without holding them all.
func WithAggregateAccounting() ClusterOption {
	return func(cfg *clusterConfig) { cfg.aggregate = true }
}

// WithBatchedScheduling defers submission-triggered scheduling passes:
// submissions mark a pass due and the driver runs it by calling Flush
// after it has queued everything arriving at the instant. Throughput
// mode for the cluster simulator (drivers that never Flush will stall
// pending jobs); the default remains synchronous scheduling, where a
// Submit can return an already-running job.
func WithBatchedScheduling() ClusterOption {
	return func(cfg *clusterConfig) { cfg.batched = true }
}

// WithUsageSink observes every fair-share usage increment the moment
// accounting applies it. The parallel partition lanes use it to
// replicate usage deltas into sibling lane controllers between
// windows (AddUsage).
func WithUsageSink(fn func(uid uint32, cpuSeconds float64)) ClusterOption {
	return func(cfg *clusterConfig) { cfg.usageSink = fn }
}

// WithEnergyPolicy gives the controller a cluster energy policy at
// construction. The policy layer activates only through this option;
// without it the dispatch path is unchanged.
func WithEnergyPolicy(p EnergyPolicy) ClusterOption {
	return func(cfg *clusterConfig) { cfg.policy = p }
}

// maxNodeWidth bounds a node's cores and its threads per core, both 16
// bits wide in slurmctld's node record. Submission caps a job's tasks
// and threads per CPU at its node's, so accounting stores them in 16
// bits too (acctRow).
const maxNodeWidth = math.MaxUint16

// NewCluster builds a controller over the configuration's partition
// and the nodes WithNodes gives it. Submit plugins named in
// conf.JobSubmitPlugins must be registered with RegisterPlugin before
// the first submission.
func NewCluster(sim *simclock.Sim, conf Conf, opts ...ClusterOption) (*Controller, error) {
	var cfg clusterConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if conf.Partition.Name == "" {
		return nil, fmt.Errorf("slurm: configuration has no partition")
	}
	if len(cfg.nodes) == 0 {
		return nil, fmt.Errorf("slurm: controller needs at least one node")
	}

	c := &Controller{
		sim:       sim,
		conf:      conf,
		part:      &partition{name: conf.Partition.Name, conf: conf.Partition, multifactor: cfg.multifactor},
		nextID:    1,
		acct:      &Accounting{aggregateOnly: cfg.aggregate},
		userSlots: make(map[uint32]int32),
		usageSink: cfg.usageSink,
		aggregate: cfg.aggregate,
		batched:   cfg.batched,
	}
	c.part.ctl = c
	c.wakeAct.c = c

	seen := make(map[string]bool, len(cfg.nodes))
	for _, n := range cfg.nodes {
		spec := n.Spec()
		name := spec.Name
		if seen[name] {
			return nil, fmt.Errorf("slurm: duplicate node name %q", name)
		}
		if spec.Cores > maxNodeWidth || spec.ThreadsPerCore > maxNodeWidth {
			return nil, fmt.Errorf("slurm: node %q has %d cores × %d threads per core, more than %d",
				name, spec.Cores, spec.ThreadsPerCore, maxNodeWidth)
		}
		seen[name] = true
		nd := &nodeD{name: name, hw: n, spec: spec}
		c.part.addNode(nd)
		c.refreeNode(nd)
	}

	var err error
	if c.pol, err = newPolicy(c, cfg.policy); err != nil {
		return nil, err
	}
	return c, nil
}
