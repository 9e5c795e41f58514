package repro.ppr

import repro.graph.LocalGraph

/** Exact (near-exact) PPR via power iteration, the paper's `PI` baseline.
  *
  * The paper runs PI "until the absolute error of PPR is less than 1e-9".
  * Since the restart series contracts by (1-α) per term, running
  * `t = ceil(ln(Tol) / ln(1-α))` iterations bounds the truncation error of
  * every entry by `Tol`. These routines are the correctness oracle for every
  * approximate algorithm in the repo.
  */
object PowerIteration {

  val Tol = 1e-9

  /** Iterations needed for absolute error < [[Tol]]. */
  def itersFor(alpha: Double): Int =
    math.ceil(math.log(Tol) / math.log(1.0 - alpha)).toInt + 1

  /** PPR vector for a source distribution `s` (must sum to 1):
    * p ← α·s + (1-α)·Pᵀp.
    */
  def pprFromDistribution(g: LocalGraph, s: Array[Double], alpha: Double,
                          deadline: Deadline = Deadline.none): Array[Double] = {
    val n = g.n
    // Two buffers, swapped each iteration: `next` is cleared, not reallocated.
    var p    = s.clone()
    var next = new Array[Double](n)
    val iters = itersFor(alpha)
    var it = 0
    while (it < iters) {
      deadline.check()
      java.util.Arrays.fill(next, 0.0)
      var v = 0
      while (v < n) {
        val pv = p(v)
        if (pv != 0.0) {
          val share = (1.0 - alpha) * pv / g.outDeg(v)
          g.foreachOut(v)(u => next(u) += share)
        }
        v += 1
      }
      var i = 0
      while (i < n) { next(i) += alpha * s(i); i += 1 }
      // The recurrence yields p_t = α Σ_{i<=t} (1-α)^i (Pᵀ)^i s exactly, but
      // the loop above computes (1-α)Pᵀp_t + αs, i.e. the same series.
      val t = p; p = next; next = t
      it += 1
    }
    p
  }

  /** Single-source PPR vector π(src, ·). */
  def ppr(g: LocalGraph, src: Int, alpha: Double): Array[Double] = {
    val s = new Array[Double](g.n)
    s(src) = 1.0
    pprFromDistribution(g, s, alpha)
  }

  /** Single-source DPPR vector π_d(src, ·) = π(src, ·) · d(src). */
  def dppr(g: LocalGraph, src: Int, alpha: Double): Array[Double] = {
    val p = ppr(g, src, alpha)
    val d = g.outDeg(src).toDouble
    p.map(_ * d)
  }

  /** Full n×n PPR matrix — tests/small graphs only. */
  def pprMatrix(g: LocalGraph, alpha: Double): Array[Array[Double]] =
    Array.tabulate(g.n)(src => ppr(g, src, alpha))

  /** Full n×n DPPR matrix — tests/small graphs only. */
  def dpprMatrix(g: LocalGraph, alpha: Double): Array[Array[Double]] =
    Array.tabulate(g.n)(src => dppr(g, src, alpha))
}

/** Wall-clock deadline used to reproduce the paper's response-time cutoffs
  * ("we terminate a method if its response time exceeds 1000 seconds" —
  * scaled to our graphs, see DESIGN.md §3). Checked inside all inner loops.
  */
final class Deadline(val nanos: Long) extends AnyVal {
  @inline def check(): Unit =
    if (nanos != Long.MaxValue && System.nanoTime() > nanos) throw new Deadline.Exceeded
}

object Deadline {
  final class Exceeded extends RuntimeException("deadline exceeded") {
    override def fillInStackTrace(): Throwable = this
  }
  val none: Deadline = new Deadline(Long.MaxValue)
  /** `seconds` from now. A span too long for a `Long` of nanoseconds from
    * now, an infinite one too, never expires; a NaN span is refused.
    */
  def in(seconds: Double): Deadline = {
    require(!seconds.isNaN, s"a deadline needs a span in seconds, got $seconds")
    val now  = System.nanoTime()
    val span = (seconds * 1e9).toLong // Long.MaxValue from 2^63 ns up
    val end  = now + span
    if (seconds > 0 && (span == Long.MaxValue || end < now)) none else new Deadline(end)
  }
}
