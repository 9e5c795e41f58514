package repro.viz

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
    * `slot`, `leafSets`, the avgdeg and τ tables) are rebuilt from
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

  def preprocess(g: LocalGraph, k: Int): PprVizIndex = {
    val (hier, tHier) = timeSec(Hierarchy.build(g, k))
    buildIndex(hier, k, tHier)
  }

  /** The DPR and GBP index on a built hierarchy; `hierSeconds` records what
    * building the hierarchy took.
    */
  def buildIndex(hier: Hierarchy, k: Int, hierSeconds: Double): PprVizIndex = {
    val (dpr, tDpr) = timeSec(Dpr.vector(hier.g, DefaultAlpha))
    val (agg, tGbp) = timeSec(buildGbpAggregates(hier, dpr, k))
    new PprVizIndex(hier, dpr, agg, hierSeconds, tDpr, tGbp)
  }

  /** Precompute GBP results for exactly the children Tau-Push refines by GBP
    * ([[TauPush.isGbpTarget]] with the parent query's child count),
    * aggregated against that parent's query (the only query a supernode can
    * appear in as a child). r^b_max follows Eq. 6 for that query. The stored
    * array is indexed by the child order `queryWithIds` yields.
    */
  def buildGbpAggregates(hier: Hierarchy, leafDpr: Array[Double],
                         k: Int): Map[(Int, Int), Array[Double]] = {
    val del  = delta(k)
    val tau  = hier.supernodeDpr(leafDpr)
    val jobs = Array.newBuilder[((Int, Int), SuperQuery, Array[Int], Double)]
    // Targets grouped by parent, so each parent query is built once, and
    // only for parents with a target.
    for (level <- 1 to hier.nLevels + 1; p <- hier.ids(level)) {
      val children = hier.childrenOf(level, p)
      val targets  = children.filter(c =>
        TauPush.isGbpTarget(tau(level - 1)(c), children.length, hier.g.n))
      if (targets.nonEmpty) {
        val q     = hier.query(level, p, children)
        val rbmax = TauPush.rbmax(q, DefaultEps, del)
        targets.foreach(c => jobs += (((level - 1, c), q, hier.leafSets(level - 1)(c), rbmax)))
      }
    }
    // One pool task per target, each writing only its own entry.
    val todo = jobs.result()
    val agg  = new Array[Array[Double]](todo.length)
    Par.forEach(todo.length) { t =>
      val (_, q, leaves, rbmax) = todo(t)
      agg(t) = Gbp.aggregate(q, Gbp.credits(hier.g, leaves, DefaultAlpha, rbmax).est)
    }
    todo.iterator.map(_._1).zip(agg).toMap
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
