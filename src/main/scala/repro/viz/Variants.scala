package repro.viz

import java.util.Random
import repro.core.{Dppr, Gfra, PDist, SuperQuery, TauPush, TauPushResult}
import repro.graph.LocalGraph
import repro.hierarchy.Hierarchy
import repro.layout.StressMajorization
import repro.ppr._

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

  /** A variant's index on the shared hierarchy. Tau-Push and GFP(τ_max)
    * keep PPRviz's own index: DPR, plus GBP aggregates for Tau-Push only.
    */
  final case class VariantIndex(
      variant: Variant,
      hier: Hierarchy,
      bytes: Long,
      buildSeconds: Double, // index build time excluding the shared hierarchy
      walkIndex: Option[WalkIndex],
      pprviz: Option[PprVizIndex],
  )

  object VariantIndex {
    def apply(variant: Variant, ix: PprVizIndex): VariantIndex =
      VariantIndex(variant, ix.hier, ix.sizeBytes, ix.dprSeconds + ix.gbpSeconds,
        None, Some(ix))
  }

  /** Build a variant's index on top of a shared hierarchy. */
  def buildIndex(variant: Variant, g: LocalGraph, k: Int, hier: Hierarchy,
                 alpha: Double = PPRviz.DefaultAlpha,
                 eps: Double = PPRviz.DefaultEps,
                 seed: Long = 99): VariantIndex =
    variant match {
      case PiVar | ResAccVar =>
        VariantIndex(variant, hier, hier.sizeBytes, 0.0, None, None)
      case ForaVar | ForaPlusVar | GfraVar =>
        val quota   = if (variant == ForaPlusVar) ForaPlusQuota else ForaQuota
        val (wi, t) = PPRviz.timeSec(WalkIndex.build(g, alpha, quota, seed))
        VariantIndex(variant, hier, hier.sizeBytes + wi.sizeBytes, t, Some(wi), None)
      case TauPushVar =>
        VariantIndex(variant, PPRviz.buildIndex(g, hier, k, alpha, eps, 0.0))
      case GfpTauMaxVar =>
        val (dpr, t) = PPRviz.timeSec(Dpr.vector(g, alpha))
        VariantIndex(variant, new PprVizIndex(hier, dpr, Map.empty, 0.0, t, 0.0))
    }

  /** Approximate level-ℓ DPPR matrix for a query under a variant. The FORA
    * family and PI run per leaf node of the selected supernode, as the paper
    * describes (§3.3, App. A.2) — this is exactly why they exceed the
    * response deadline on large graphs (Table 8).
    */
  def dpprMatrix(vi: VariantIndex, g: LocalGraph, q: SuperQuery, level: Int,
                 ids: Array[Int], k: Int, alpha: Double, eps: Double,
                 deadline: Deadline, seed: Long): Array[Array[Double]] = {
    val del = PPRviz.delta(k)
    val pf  = 1.0 / g.n
    vi.variant match {
      case PiVar =>
        Dppr.perLeafMatrix(g, q, alpha, 1e-9, deadline)
      case ForaVar | ForaPlusVar | ResAccVar =>
        val rnd        = new Random(seed)
        val rmaxFactor = if (vi.variant == ResAccVar) Fora.ResAccRmaxFactor else 1.0
        Dppr.perLeafAverage(q, deadline) { s =>
          Fora.dppr(g, s, alpha, eps, del, pf, rnd, deadline, vi.walkIndex.orNull, rmaxFactor)
        }
      case TauPushVar | GfpTauMaxVar =>
        tauPush(vi, g, q, level, ids, k, alpha, eps, deadline).dppr
      case GfraVar =>
        Gfra.run(g, q, alpha, eps, del, pf, seed, deadline, vi.walkIndex.orNull)
    }
  }

  /** Tau-Push or GFP(τ_max) on PPRviz's own index (GFP(τ_max)'s holds no
    * GBP entries, and its mode picks no GBP targets).
    */
  private def tauPush(vi: VariantIndex, g: LocalGraph, q: SuperQuery, level: Int,
                      ids: Array[Int], k: Int, alpha: Double, eps: Double,
                      deadline: Deadline): TauPushResult = {
    val ix   = vi.pprviz.get
    val mode = if (vi.variant == TauPushVar) TauPush.Standard else TauPush.GfpTauMax
    TauPush.run(g, q, ix.leafDpr, alpha, eps, PPRviz.delta(k), mode, deadline,
      ix.gbpLookup(level, ids))
  }

  /** One visualization under a variant: DPPR → PDist → stress majorization.
    * Returns None when the deadline is exceeded (a "-" entry in Table 8).
    */
  def visualize(vi: VariantIndex, g: LocalGraph, level: Int, id: Int, k: Int,
                deadline: Deadline, seed: Long = 7,
                alpha: Double = PPRviz.DefaultAlpha,
                eps: Double = PPRviz.DefaultEps): Option[Array[Array[Double]]] =
    try {
      val (q, ids) = PPRviz.queryWithIds(vi.hier, level, id)
      // Tau-Push and GFP(τ_max) return the PDist matrix with their DPPR.
      val pdist = vi.variant match {
        case TauPushVar | GfpTauMaxVar =>
          tauPush(vi, g, q, level, ids, k, alpha, eps, deadline).pdist
        case _ =>
          PDist.matrix(dpprMatrix(vi, g, q, level, ids, k, alpha, eps, deadline, seed), g.n)
      }
      Some(StressMajorization.layout(pdist, seed))
    } catch {
      case _: Deadline.Exceeded => None
    }

  /** Average response time over zoom paths; None if any query hits the
    * deadline (the paper terminates such methods).
    */
  def responseTime(vi: VariantIndex, g: LocalGraph, k: Int, paths: Int,
                   deadlineSec: Double, seed: Long): Option[Double] = {
    val rnd = new Random(seed)
    var total = 0.0
    var count = 0
    var p = 0
    while (p < paths) {
      val path = vi.hier.randomZoomPath(rnd)
      path.foreach { case (level, id) =>
        val t0 = System.nanoTime()
        visualize(vi, g, level, id, k, Deadline.in(deadlineSec)) match {
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
