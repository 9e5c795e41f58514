package repro.ppr

import java.util.Random
import repro.graph.LocalGraph

/** Random-walk-with-restart sampler (Fogaras et al. [24]) — the Monte-Carlo
  * refinement stage of the FORA family and GFRA.
  */
object RandomWalk {

  /** One RWR from `start`: stop with probability α per step, otherwise move
    * to a uniform out-neighbour. Returns the terminal node.
    */
  def walk(g: LocalGraph, start: Int, alpha: Double, rnd: Random): Int = {
    var cur = start
    while (rnd.nextDouble() >= alpha) {
      val d = g.outDeg(cur)
      cur = g.outAdj(g.outOff(cur) + rnd.nextInt(d))
    }
    cur
  }

  /** The walk phase of FORA and GFRA: `omega` walks, each starting at a node
    * drawn with probability residue(v)/rsum from `push`'s residue and ended
    * by `walkIndex` (when not null) or simulated. `endpoint` receives every
    * terminal node; the deadline is checked every 256 walks.
    */
  private[repro] def walks(g: LocalGraph, push: PushResult, omega: Long, alpha: Double,
                           walkIndex: WalkIndex, rnd: Random, deadline: Deadline)(
                           endpoint: Int => Unit): Unit = {
    val sampler = new ResidueSampler(push.residue)
    var i = 0L
    while (i < omega) {
      if ((i & 0xff) == 0) deadline.check()
      val start = sampler(rnd)
      endpoint(if (walkIndex != null) walkIndex.endpoint(start, rnd) else walk(g, start, alpha, rnd))
      i += 1
    }
  }
}

/** Cumulative-weight sampler over sparse residues: draws a node index with
  * probability residue(v)/Σ residue. Built once per sampling phase (O(n)
  * primitive scan, O(log #nonzero) per draw).
  */
final class ResidueSampler(residue: Array[Double]) {
  private val idx = {
    var nz = 0
    var v  = 0
    while (v < residue.length) { if (residue(v) > 0.0) nz += 1; v += 1 }
    val a = new Array[Int](nz)
    nz = 0; v = 0
    while (v < residue.length) { if (residue(v) > 0.0) { a(nz) = v; nz += 1 }; v += 1 }
    a
  }
  private val cum = new Array[Double](idx.length)
  private val total = {
    var acc = 0.0
    var i = 0
    while (i < idx.length) { acc += residue(idx(i)); cum(i) = acc; i += 1 }
    acc
  }

  def apply(rnd: Random): Int = {
    val x = rnd.nextDouble() * total
    var lo = 0; var hi = idx.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) < x) lo = mid + 1 else hi = mid
    }
    idx(lo)
  }
}
