package repro.ppr

import repro.graph.LocalGraph

/** Result of a push run: the array the credit sink accumulated into (per-node
  * estimates, per-child estimates or per-node GBP credits), per-node leftover
  * residues, plus the number of push operations performed.
  */
final case class PushResult(
    est: Array[Double],
    residue: Array[Double],
    pushes: Long,
) {

  /** Σ_v r(v), summed in node order on first read: an O(n) pass that only
    * FORA and GFRA (and tests) pay for.
    */
  lazy val rsum: Double = {
    var s = 0.0
    var i = 0
    while (i < residue.length) { s += residue(i); i += 1 }
    s
  }
}

/** The two push kernels every PPR engine here is built from: Forward-Push
  * (Andersen et al. [4]), grouped by GFP (Alg. 2), and Backward-Push
  * (Lofgren–Goel [50]), grouped by GBP (Alg. 3).
  *
  * Both start from seed residues (`seedResidue(i)` at node `seeds(i)`; seeds
  * enter the FIFO queue in the given order, which callers keep ascending) and
  * process nodes until every residue is below the threshold. Each processed
  * node v with residue r is handed to the credit sink once, as `credit(v, r)`;
  * the sink decides where α·r goes and writes into `est`, which the result
  * returns. The deadline is checked every 1024 queue pops.
  *
  * The queue is a ring of unboxed ints, the edge loop reads the CSR arrays
  * directly and makes no call, and thresholds and shares read
  * `LocalGraph.outDegD` (int → double is exact, so every product and quotient
  * keeps its bits). Each call allocates its own zeroed `residue` and
  * `inQueue`: a per-thread reused workspace measured slower on fork-join
  * helpers, and a touched-list reset cost more than the zeroing saved
  * (DESIGN.md, layering note).
  */
object Push {

  /** Forward push: while some node has `r(v) > d(v)·rmax`, credit v and
    * spread (1-α)·r(v) evenly over v's out-neighbours. The invariant of
    * Eq. (3) holds throughout.
    */
  def forward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
              alpha: Double, rmax: Double, deadline: Deadline,
              est: Array[Double])(credit: (Int, Double) => Unit): PushResult = {
    val residue = seeded(g.n, seeds, seedResidue)
    val inQueue = new Array[Boolean](g.n)
    val deg     = g.outDegD
    val off     = g.outOff
    val adj     = g.outAdj
    // FIFO of node ids: ring(head & mask) until ring(tail & mask), head and
    // tail only growing. A repeated seed enters once per copy, so the ring
    // may need more than n slots.
    var ring = new Array[Int](ringSize(seeds.length))
    var head = 0
    var tail = 0
    var i = 0
    while (i < seeds.length) {
      val v = seeds(i)
      if (residue(v) > deg(v) * rmax) { ring(tail) = v; tail += 1; inQueue(v) = true }
      i += 1
    }
    var pushes = 0L
    var pops   = 0
    while (head != tail) {
      if ((pops & 0x3ff) == 0) deadline.check()
      pops += 1
      val vk = ring(head & (ring.length - 1)); head += 1; inQueue(vk) = false
      val r  = residue(vk)
      val dv = deg(vk)
      if (r > dv * rmax) {
        credit(vk, r)
        val share = (1.0 - alpha) * r / dv
        residue(vk) = 0.0
        var e = off(vk); val end = off(vk + 1)
        pushes += end - e
        // Room for every neighbour up front, so the edge loop makes no call.
        if (tail - head + (end - e) > ring.length) {
          ring = unwrapped(ring, head, tail, end - e); tail -= head; head = 0
        }
        val mask = ring.length - 1
        while (e < end) {
          val u  = adj(e)
          val ru = residue(u) + share
          residue(u) = ru
          // Rarely true, so one non-short-circuit test predicts well.
          if ((ru > deg(u) * rmax) & !inQueue(u)) {
            ring(tail & mask) = u; tail += 1; inQueue(u) = true
          }
          e += 1
        }
      }
    }
    PushResult(est, residue, pushes)
  }

  /** Backward push along in-edges: while some node has `r(v) > rbmax`,
    * credit v and add (1-α)·r(v)/d(u) to each in-neighbour u (the r.h.s.
    * graph of Fig. 5). Crediting α·r(v) approximates π(·, t) for a seed t.
    */
  def backward(g: LocalGraph, seeds: Array[Int], seedResidue: Array[Double],
               alpha: Double, rbmax: Double, deadline: Deadline,
               est: Array[Double])(credit: (Int, Double) => Unit): PushResult = {
    val residue = seeded(g.n, seeds, seedResidue)
    val inQueue = new Array[Boolean](g.n)
    val deg     = g.outDegD
    val off     = g.inOff
    val adj     = g.inAdj
    // FIFO of node ids: ring(head & mask) until ring(tail & mask), head and
    // tail only growing. A repeated seed enters once per copy, so the ring
    // may need more than n slots.
    var ring = new Array[Int](ringSize(seeds.length))
    var head = 0
    var tail = 0
    var i = 0
    while (i < seeds.length) {
      val v = seeds(i)
      if (residue(v) > rbmax) { ring(tail) = v; tail += 1; inQueue(v) = true }
      i += 1
    }
    var pushes = 0L
    var pops   = 0
    while (head != tail) {
      if ((pops & 0x3ff) == 0) deadline.check()
      pops += 1
      val vk = ring(head & (ring.length - 1)); head += 1; inQueue(vk) = false
      val r  = residue(vk)
      if (r > rbmax) {
        credit(vk, r)
        val spread = (1.0 - alpha) * r
        residue(vk) = 0.0
        var e = off(vk); val end = off(vk + 1)
        pushes += end - e
        // Room for every neighbour up front, so the edge loop makes no call.
        if (tail - head + (end - e) > ring.length) {
          ring = unwrapped(ring, head, tail, end - e); tail -= head; head = 0
        }
        val mask = ring.length - 1
        while (e < end) {
          val u  = adj(e)
          val ru = residue(u) + spread / deg(u)
          residue(u) = ru
          if ((ru > rbmax) & !inQueue(u)) {
            ring(tail & mask) = u; tail += 1; inQueue(u) = true
          }
          e += 1
        }
      }
    }
    PushResult(est, residue, pushes)
  }

  private def seeded(n: Int, seeds: Array[Int], seedResidue: Array[Double]): Array[Double] = {
    val residue = new Array[Double](n)
    var i = 0
    while (i < seeds.length) { residue(seeds(i)) += seedResidue(i); i += 1 }
    residue
  }

  /** The power of two ≥ `need`, at least 64. */
  private def ringSize(need: Int): Int = Integer.highestOneBit(math.max(need, 64) - 1) << 1

  /** The ring's entries head until tail, moved to the front of a ring at
    * least twice as large with room for `extra` more.
    */
  private def unwrapped(ring: Array[Int], head: Int, tail: Int, extra: Int): Array[Int] = {
    val size = tail - head
    val next = new Array[Int](ringSize(math.max(2 * ring.length, size + extra)))
    var i = 0
    while (i < size) { next(i) = ring((head + i) & (ring.length - 1)); i += 1 }
    next
  }
}

/** Single-source DPPR by forward push (§3.3 / Fig. 4): with initial residue
  * r(s) = d(s) (§7.1), the estimates approximate π_d(s, ·).
  */
object ForwardPush {

  def dppr(g: LocalGraph, src: Int, alpha: Double, rmax: Double,
           deadline: Deadline = Deadline.none): PushResult = {
    val est = new Array[Double](g.n)
    Push.forward(g, Array(src), Array(g.outDeg(src).toDouble), alpha, rmax, deadline,
        est) { (v, r) =>
      est(v) += alpha * r
    }
  }
}
