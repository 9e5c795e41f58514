package repro.core

import repro.graph.LocalGraph
import repro.ppr.{Deadline, Par}

/** Output of Algorithm 1: the approximate level-ℓ DPPR matrix, the PDist
  * matrix derived from it via Eq. 1, and work counters.
  */
final case class TauPushResult(
    dppr: Array[Array[Double]],
    pdist: Array[Array[Double]],
    gbpTargets: Int,
    pushes: Long,
)

/** Tau-Push (Algorithm 1) — filter-refinement estimation of all-pair level-ℓ
  * DPPR inside a selected supernode S:
  *
  *  1. τ ← 1/√(k·n); r_max ← ε·δ/(m·τ)                       (Lines 1–2, Eq. 5)
  *  2. GFP from every child V_i                               (Lines 3–4)
  *  3. r^b_max ← ε·δ / max_i avgdeg(V_i)                      (Line 5, Eq. 6)
  *  4. GBP into every child V_j with DPR τ_j > τ              (Lines 6–7)
  *  5. convert DPPR to PDist via Eq. 1                        (Lines 8–9)
  *
  * The `GfpTauMax` mode is the ablation variant GFP(τ_max) of §7.4: it picks
  * no GBP targets, so GFP pushes deep enough for τ = max_j τ_j to satisfy
  * Lemma 4.1 for every target by itself and no GBP runs.
  *
  * The k GFP rows and the live GBP runs are independent and run as
  * [[Par.forEach]] tasks sharing the click's deadline; each keeps its own
  * seeds, FIFO order and sums, so every output is the same for any thread
  * count.
  */
object TauPush {

  /** The target rule: `Standard` refines every [[isGbpTarget]] child by GBP,
    * `GfpTauMax` none.
    */
  sealed trait Mode
  case object Standard  extends Mode
  case object GfpTauMax extends Mode

  /** The filter threshold τ = 1/√(k·n) of Line 1. */
  def tau(k: Int, n: Int): Double = 1.0 / math.sqrt(k.toDouble * n)

  /** Line 6: child V_j of a k-child query is a GBP target when its supernode
    * DPR τ_j (Eq. 4, [[SuperQuery.childDpr]]) exceeds τ. The GBP index is built
    * for exactly these targets of every query.
    */
  def isGbpTarget(tauJ: Double, k: Int, n: Int): Boolean = tauJ > tau(k, n)

  /** Eq. 6: r^b_max = ε·δ / max_i avgdeg(V_i) for GBP inside query `q`. */
  private[repro] def rbmax(q: SuperQuery, eps: Double, delta: Double): Double = {
    val avg = q.avgDegs
    var mx  = avg(0)
    var i   = 1
    while (i < avg.length) { mx = math.max(mx, avg(i)); i += 1 }
    eps * delta / mx
  }

  /** @param leafDpr   precomputed leaf DPR vector (the O(n) index of §4.3)
    * @param gbpLookup optional precomputed GBP results for a child index:
    *                  the aggregated estimates π̂_d(V_i, V_j) for every
    *                  source child V_i (the O(k·√(kn)) index of §4.3 — each
    *                  supernode is a child of exactly one query, so its k
    *                  sibling aggregates can be stored offline); children
    *                  missing from the lookup fall back to a live GBP run
    */
  def run(g: LocalGraph, q: SuperQuery, leafDpr: Array[Double], alpha: Double,
          eps: Double, delta: Double, mode: Mode = Standard,
          deadline: Deadline = Deadline.none,
          gbpLookup: Int => Option[Array[Double]] = _ => None): TauPushResult = {
    val k = q.k
    val n = g.n

    def isTarget(tauJ: Double): Boolean = mode == Standard && isGbpTarget(tauJ, k, n)
    val tauJ   = q.childDpr(leafDpr)
    val target = tauJ.map(isTarget)

    // Lemma 4.1 only requires r_max <= ε·δ/(m·τ_j) for the targets GFP is
    // responsible for (τ_j <= τ); the binding constraint is the largest such
    // τ_j, not τ itself. Using that cover value is exactly what the
    // filter-refinement split buys: GBP handles every τ_j > τ, so GFP can
    // stop at the depth the remaining targets need. (On supernode-level
    // queries, DPRs concentrate near 1/n — far below 1/√(kn), App. A.4 —
    // and Eq. 5 taken literally would push ~√(kn)·τ_max/... deeper than any
    // covered target requires.) With no targets the cover is max_j τ_j.
    val covered  = tauJ.filterNot(isTarget)
    val tauCover = if (covered.isEmpty || covered.max <= 0.0) tau(k, n) else covered.max
    val rmax     = eps * delta / (g.m.toDouble * tauCover)

    // GBP lookups stay on this thread, in j order (a caller's lookup need
    // not be thread-safe); only the live fallbacks join the GFP rows as pool
    // tasks. Each task writes its own slot.
    val rb       = rbmax(q, eps, delta)
    val refined  = Array.tabulate(k)(j => if (target(j)) gbpLookup(j).orNull else null)
    val live     = (0 until k).filter(j => target(j) && refined(j) == null).toArray
    val dppr     = new Array[Array[Double]](k)
    val pushesOf = new Array[Long](k + live.length)
    Par.forEach(k + live.length) { t =>
      if (t < k) {
        val r = Gfp.run(g, q, t, alpha, rmax, deadline)
        dppr(t) = r.est
        pushesOf(t) = r.pushes
        g.returnResidue(r.residue)
      } else {
        val j = live(t - k)
        val (est, pushes) = Gbp.run(g, q, j, alpha, rb, deadline)
        refined(j) = est
        pushesOf(t) = pushes
      }
    }

    var j = 0
    while (j < k) {
      if (target(j)) {
        var s = 0
        while (s < k) {
          if (s != j) dppr(s)(j) = refined(j)(s)
          s += 1
        }
      }
      j += 1
    }

    TauPushResult(dppr, PDist.matrix(dppr, n), target.count(identity), pushesOf.sum)
  }
}
