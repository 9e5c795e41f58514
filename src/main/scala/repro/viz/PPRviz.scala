package repro.viz

import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._
import repro.core.{Gbp, SuperQuery, TauPush, TauPushResult}
import repro.graph.LocalGraph
import repro.hierarchy.Hierarchy
import repro.ppr.{Deadline, Dpr, Par}

/** The PPRviz preprocessing output (Fig. 7 left): supergraph hierarchy,
  * leaf DPR vector, and precomputed GBP results for every supernode that
  * Tau-Push refines by GBP in its parent's query ([[TauPush.isGbpTarget]]).
  *
  * GBP from a target V_j is query independent in its propagation, and V_j
  * appears as a child of exactly one query — its parent's — so the k
  * aggregated estimates π̂_d(V_i, V_j) w.r.t. its siblings can be stored
  * offline. That is the O(k·√(kn)) index of §4.3: `gbpAgg((level, id))(i)`
  * is the estimate for the i-th child of `id`'s parent query.
  *
  * @param hierSeconds Louvain+'s wall time in [[PPRviz.preprocess]]; 0 in
  *                    [[PPRviz.buildIndex]], whose caller built the
  *                    hierarchy
  * @param dprSeconds  DPR power iteration's own run time; in
  *                    [[PPRviz.preprocess]] it runs beside Louvain+ and
  *                    overlaps `hierSeconds`
  * @param gbpSeconds  the wall time from the end of the stages before it
  *                    until the index is complete: in [[PPRviz.preprocess]]
  *                    from the end of Louvain+, so the GBP work not hidden
  *                    behind it, and in [[PPRviz.buildIndex]] from the end
  *                    of DPR, so the whole GBP index
  */
final class PprVizIndex(
    val hier: Hierarchy,
    val leafDpr: Array[Double],
    val gbpAgg: Map[(Int, Int), Array[Double]],
    val hierSeconds: Double,
    val dprSeconds: Double,
    val gbpSeconds: Double,
) {
  // The per-supernode τ table every query on this index reads.
  hier.supernodeDpr(leafDpr)

  /** Bytes of `parents`, the DPR vector and the GBP aggregates (Table 10).
    * The hierarchy's derived per-leaf and per-supernode arrays (`anc`,
    * `slot`, the supernodes' leaf sets, the avgdeg and τ tables) are rebuilt from
    * `parents` and `leafDpr` and are not counted.
    */
  def sizeBytes: Long =
    hier.sizeBytes + 8L * leafDpr.length +
      gbpAgg.valuesIterator.map(a => 8L * a.length + 32L).sum
}

/** PPRviz (§5): preprocessing (Louvain+ hierarchy, DPR index, GBP results)
  * and the interactive Tau-Push PDist query. [[Variants]] lays the result
  * out and swaps the DPPR engine for the §7.4 variants.
  */
object PPRviz {

  val DefaultAlpha = 0.2
  val DefaultEps: Double = 1.0 - 1.0 / math.E

  /** δ = 1/(10k) as in §7.1. */
  def delta(k: Int): Double = 1.0 / (10.0 * k)

  def timeSec[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Preprocessing, its three stages overlapped (Fig. 7 left). DPR power
    * iteration runs as a pool task beside Louvain+, which keeps the calling
    * thread. Each time Louvain+ reports a level ℓ, a pool task waits for
    * DPR, picks the GBP targets among the children of the level-ℓ
    * supernodes and forks one GBP run per target ([[gbpJobs]]); the virtual
    * root's targets follow the last level, and the calling thread runs
    * queued GBP work once Louvain+ is done. Returns the index
    * [[buildIndex]] builds on the same hierarchy, bit for bit. A bad `k`
    * fails before any task is forked; any other failure is rethrown after
    * every task has finished, Louvain+'s before a task's.
    */
  def preprocess(g: LocalGraph, k: Int): PprVizIndex = {
    Hierarchy.requireK(k)
    val dpr = Par.fork(timeSec(Dpr.vector(g, DefaultAlpha)))
    val agg = new ConcurrentHashMap[(Int, Int), Array[Double]]()
    val gbp = new Par.Group
    // Every task of the group waits for DPR before anything else, so once
    // the group is joined DPR has finished if any task ran.
    def targetsOf(hier: Hierarchy, level: Int): Unit = gbp.fork {
      gbpJobs(hier, level, dpr()._1, k).foreach { case (key, job) => gbp.fork(agg.put(key, job())) }
    }
    val built =
      try Right(timeSec(Hierarchy.build(g, k, h => targetsOf(h, h.nLevels))))
      catch { case t: Throwable => Left(t) }
    val t1 = System.nanoTime()
    built.foreach { case (hier, _) => targetsOf(hier, hier.nLevels + 1) }
    val waited = try { gbp.join(); Right(dpr()) } catch { case t: Throwable => Left(t) }
    val (hier, tHier)   = built.fold(t => throw t, identity)
    val (leafDpr, tDpr) = waited.fold(t => throw t, identity)
    val gbpAgg = agg.asScala.toMap
    new PprVizIndex(hier, leafDpr, gbpAgg, tHier, tDpr, (System.nanoTime() - t1) / 1e9)
  }

  /** The DPR and GBP index on a hierarchy built beforehand, one stage after
    * the other; its `hierSeconds` is 0, as building the hierarchy was timed
    * by the caller.
    */
  def buildIndex(hier: Hierarchy, k: Int): PprVizIndex = {
    val (dpr, tDpr) = timeSec(Dpr.vector(hier.g, DefaultAlpha))
    val (agg, tGbp) = timeSec(buildGbpAggregates(hier, dpr, k))
    new PprVizIndex(hier, dpr, agg, 0.0, tDpr, tGbp)
  }

  /** Precompute GBP results for exactly the children Tau-Push refines by GBP,
    * the [[gbpJobs]] of every level, one pool task per target.
    */
  def buildGbpAggregates(hier: Hierarchy, leafDpr: Array[Double],
                         k: Int): Map[(Int, Int), Array[Double]] = {
    val jobs = (1 to hier.nLevels + 1).flatMap(gbpJobs(hier, _, leafDpr, k)).toArray
    val agg  = new Array[Array[Double]](jobs.length)
    Par.forEach(jobs.length)(t => agg(t) = jobs(t)._2())
    jobs.iterator.map(_._1).zip(agg).toMap
  }

  /** The GBP index entries of the queries on the level-ℓ supernodes of
    * `hier` (the virtual root when ℓ = nLevels+1): one per child that
    * Tau-Push refines by GBP ([[TauPush.isGbpTarget]] with the query's child
    * count), keyed by the child's (level, id), and a job that runs GBP from
    * it and aggregates the credits against that query, the only query a
    * supernode appears in as a child. r^b_max follows Eq. 6 for the query;
    * the aggregates are indexed by the child order `queryWithIds` yields.
    * Only levels ≤ ℓ are read, so a hierarchy that Louvain+ has built up to
    * level ℓ gives the entries of the finished one; each query is built
    * once, and only for a supernode with a target.
    */
  private def gbpJobs(hier: Hierarchy, level: Int, leafDpr: Array[Double],
                      k: Int): Seq[((Int, Int), () => Array[Double])] = {
    val tau = hier.supernodeDpr(leafDpr)(level - 1)
    hier.ids(level).flatMap { p =>
      val children = hier.childrenOf(level, p)
      val targets  = children.indices.filter(i =>
        TauPush.isGbpTarget(tau(children(i)), children.length, hier.g.n))
      if (targets.isEmpty) Nil
      else {
        val q     = hier.query(level, p, children)
        val rbmax = TauPush.rbmax(q, DefaultEps, delta(k))
        targets.map(i => (level - 1, children(i)) -> (() =>
          Gbp.run(hier.g, q, i, DefaultAlpha, rbmax)._1))
      }
    }
  }

  /** Children + their level-(ℓ-1) ids for a selected supernode; level
    * nLevels+1 with id = -1 addresses the virtual root (coarsest
    * supergraph). Any other address must name a supernode.
    */
  def queryWithIds(hier: Hierarchy, level: Int, id: Int): (SuperQuery, Array[Int]) = {
    val cs = hier.childrenOf(level, id)
    (hier.query(level, id, cs), cs)
  }

  /** Interactive PDist-matrix computation for a selected supernode, using the
    * precomputed DPR/GBP index (Fig. 7c).
    */
  def queryPDist(g: LocalGraph, index: PprVizIndex, level: Int, id: Int,
                 k: Int, deadline: Deadline = Deadline.none): TauPushResult = {
    val (q, ids) = queryWithIds(index.hier, level, id)
    TauPush.run(g, q, index.leafDpr, DefaultAlpha, DefaultEps, delta(k), TauPush.Standard,
      deadline, j => index.gbpAgg.get((level - 1, ids(j))))
  }
}
