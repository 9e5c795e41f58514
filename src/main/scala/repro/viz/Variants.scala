package repro.viz

import java.util.Random
import repro.core.{Dppr, Gfra, PDist, SuperQuery, TauPush}
import repro.hierarchy.Hierarchy
import repro.layout.StressMajorization
import repro.ppr._
import PPRviz.{DefaultAlpha => alpha, DefaultEps => eps}

/** The PPRviz variants of §7.4 / Tables 8–10: PPRviz with its PDist engine
  * swapped for PI, FORA, FORA+, ResAcc, Tau-Push, GFRA or GFP(τ_max).
  * Every variant shares the Louvain+ hierarchy; they differ in their index
  * (none / random-walk endpoints / DPR+GBP credits) and query algorithm.
  */
object Variants {

  sealed trait Variant { def name: String }
  case object PiVar        extends Variant { val name = "PI"          }
  case object ForaVar      extends Variant { val name = "FORA"        }
  case object ForaPlusVar  extends Variant { val name = "FORA+"       }
  case object ResAccVar    extends Variant { val name = "ResAcc"      }
  case object TauPushVar   extends Variant { val name = "Tau-Push"    }
  case object GfraVar      extends Variant { val name = "GFRA"        }
  case object GfpTauMaxVar extends Variant { val name = "GFP(tmax)"   }

  val all: Seq[Variant] =
    Seq(PiVar, ForaVar, ForaPlusVar, ResAccVar, TauPushVar, GfraVar, GfpTauMaxVar)

  /** Walk-index quotas (mean endpoints per node). FORA/GFRA share the larger
    * index, FORA+ a tighter one — mirroring the Table 10 ratios; see
    * DESIGN.md §3.
    */
  val ForaQuota     = 8
  val ForaPlusQuota = 4

  /** A variant's index on the shared hierarchy and its DPPR engine:
    * `dppr(level, id, deadline, seed)` is the approximate level-ℓ DPPR
    * matrix of the children of supernode `id` at `level`, answered with the
    * k the index was built for and PPRviz's α and ε. Tau-Push and GFP(τ_max)
    * keep PPRviz's own index: DPR, plus GBP aggregates for Tau-Push only.
    */
  final case class VariantIndex(
      variant: Variant,
      hier: Hierarchy,
      bytes: Long,
      buildSeconds: Double, // index build time excluding the shared hierarchy
      dppr: (Int, Int, Deadline, Long) => Array[Array[Double]],
  )

  /** Build a variant's index and engine on a shared hierarchy, for queries
    * on the hierarchy's graph. The FORA family and PI run per leaf node of
    * the selected supernode, as the paper describes (§3.3, App. A.2) — this
    * is exactly why they exceed the response deadline on large graphs
    * (Table 8).
    */
  def buildIndex(variant: Variant, hier: Hierarchy, k: Int, seed: Long = 99): VariantIndex = {
    val g   = hier.g
    val del = PPRviz.delta(k)
    val pf  = 1.0 / g.n
    // An engine answering from the query on (level, id); `qseed` seeds the
    // query's random draws, `seed` the walk index.
    def engine(bytes: Long, seconds: Double)(
        f: (SuperQuery, Deadline, Long) => Array[Array[Double]]): VariantIndex =
      VariantIndex(variant, hier, bytes, seconds, (level, id, deadline, qseed) =>
        f(PPRviz.queryWithIds(hier, level, id)._1, deadline, qseed))
    def fora(wi: WalkIndex, rmaxFactor: Double)(q: SuperQuery, deadline: Deadline,
                                                 qseed: Long): Array[Array[Double]] = {
      val rnd = new Random(qseed)
      Dppr.perLeafAverage(q, deadline) { s =>
        Fora.dppr(g, s, alpha, eps, del, pf, rnd, deadline, wi, rmaxFactor)
      }
    }
    variant match {
      case PiVar =>
        engine(hier.sizeBytes, 0.0)((q, deadline, _) =>
          Dppr.perLeafMatrix(g, q, alpha, deadline))
      case ResAccVar =>
        engine(hier.sizeBytes, 0.0)(fora(null, Fora.ResAccRmaxFactor))
      case ForaVar | ForaPlusVar | GfraVar =>
        val quota   = if (variant == ForaPlusVar) ForaPlusQuota else ForaQuota
        val (wi, t) = PPRviz.timeSec(WalkIndex.build(g, alpha, quota, seed))
        engine(hier.sizeBytes + wi.sizeBytes, t)(
          if (variant == GfraVar)
            (q, deadline, qseed) => Gfra.run(g, q, alpha, eps, del, pf, qseed, deadline, wi)
          else fora(wi, 1.0))
      case TauPushVar =>
        val ix = PPRviz.buildIndex(hier, k)
        VariantIndex(variant, hier, ix.sizeBytes, ix.dprSeconds + ix.gbpSeconds,
          (level, id, deadline, _) =>
            PPRviz.queryPDist(g, ix, level, id, k, deadline).dppr)
      case GfpTauMaxVar =>
        // PPRviz's index without GBP entries; this mode picks no GBP targets.
        val (dpr, t) = PPRviz.timeSec(Dpr.vector(g, alpha))
        val ix       = new PprVizIndex(hier, dpr, Map.empty, 0.0, t, 0.0)
        engine(ix.sizeBytes, t)((q, deadline, _) =>
          TauPush.run(g, q, dpr, alpha, eps, del, TauPush.GfpTauMax, deadline).dppr)
    }
  }

  /** One visualization under a variant, seed 7: DPPR → PDist → stress
    * majorization. None when the deadline is exceeded ("-" in Table 8).
    */
  def visualize(vi: VariantIndex, level: Int, id: Int,
                deadline: Deadline): Option[Array[Array[Double]]] =
    try {
      val pdist = PDist.matrix(vi.dppr(level, id, deadline, 7), vi.hier.g.n)
      Some(StressMajorization.layout(pdist, 7))
    } catch {
      case _: Deadline.Exceeded => None
    }

  /** Average response time over zoom paths; None if any query hits the
    * deadline (the paper terminates such methods).
    */
  def responseTime(vi: VariantIndex, paths: Int, deadlineSec: Double,
                   seed: Long): Option[Double] = {
    val rnd = new Random(seed)
    var total = 0.0
    var count = 0
    var p = 0
    while (p < paths) {
      val path = vi.hier.randomZoomPath(rnd)
      path.foreach { case (level, id) =>
        val t0 = System.nanoTime()
        visualize(vi, level, id, Deadline.in(deadlineSec)) match {
          case Some(_) =>
            total += (System.nanoTime() - t0) / 1e9
            count += 1
          case None => return None
        }
      }
      p += 1
    }
    Some(total / count)
  }
}
