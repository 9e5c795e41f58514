package repro.exp

import java.util.Random
import repro.core.{Dppr, PDist, TauPush}
import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy
import repro.layout.StressMajorization
import repro.metrics.Aesthetics
import repro.ppr.Dpr
import repro.viz.PPRviz

/** Table 6 (user study task T3): does the approximate PDist of Tau-Push
  * change visualization quality versus near-exact PI?
  *
  * Substitution (DESIGN.md §3): the paper's 30 human participants are
  * replaced by 30 perceptual judges seeded from `Seed`. Each judge scores a
  * layout with a personal random linear weighting of the aesthetic signals
  * (log ND, ULCV, log AR) plus multiplicative preference noise, and reports
  * "no difference" when the scores differ by less than `Indifference` of the
  * larger. Groups follow the paper: FilmTrust and SciNet × k ∈ {15, 20, 25},
  * 30 judges × 6 groups = 180 instances.
  */
object UserStudy {

  final case class Counts(tauPush: Int, pi: Int, noDifference: Int) {
    def total: Int = tauPush + pi + noDifference
  }

  /** Quality signals of one supernode layout, measured against the display
    * graph of the query (the k-node supergraph the user actually sees).
    */
  private def signals(display: LocalGraph, x: Array[Array[Double]]): (Double, Double, Double) = {
    val xn    = Aesthetics.normalize(x)
    val edges = Aesthetics.undirectedEdges(display)
    val nd    = Aesthetics.nd(xn)
    val ulcv  = Aesthetics.ulcv(xn, edges).getOrElse(10.0)
    val ar    = Aesthetics.ar(xn, display)
    (math.log(math.max(nd, 1e-9)), ulcv, math.log(math.max(ar, 1e-9)))
  }

  val Indifference = 0.05; val Seed = 2023L

  def run(nJudges: Int = 30): Counts = {
    val groups = for {
      (name, g) <- Seq("FilmTrust" -> GraphGen.filmTrust, "SciNet" -> GraphGen.sciNet)
      k         <- Seq(15, 20, 25)
    } yield (name, g, k)

    var cTau = 0; var cPi = 0; var cNo = 0
    groups.foreach { case (_, g, k) =>
      val hier = Hierarchy.build(g, k)
      val q    = hier.rootQuery
      val dpr  = Dpr.vector(g, PPRviz.DefaultAlpha)

      val tauRes  = TauPush.run(g, q, dpr, PPRviz.DefaultAlpha, PPRviz.DefaultEps, PPRviz.delta(k))
      val piDppr  = Dppr.exactMatrix(g, q, PPRviz.DefaultAlpha)
      val xTau    = StressMajorization.layout(tauRes.pdist, Seed)
      val xPi     = StressMajorization.layout(PDist.matrix(piDppr, g.n), Seed)
      val display = q.displayGraph(g)
      val sTau    = signals(display, xTau)
      val sPi     = signals(display, xPi)

      (0 until nJudges).foreach { j =>
        val rnd  = new Random(Seed * 31 + j)
        val wNd  = 0.5 + rnd.nextDouble()
        val wUl  = 0.5 + rnd.nextDouble()
        val wAr  = 0.2 + 0.3 * rnd.nextDouble()
        def score(s: (Double, Double, Double)): Double =
          (wNd * s._1 + wUl * s._2 + wAr * s._3) * math.exp(rnd.nextGaussian() * 0.03)
        val a = score(sTau)
        val b = score(sPi)
        val rel = math.abs(a - b) / math.max(math.abs(a).max(math.abs(b)), 1e-9)
        if (rel < Indifference) cNo += 1
        else if (a < b) cTau += 1
        else cPi += 1
      }
    }
    Counts(cTau, cPi, cNo)
  }

  def render(c: Counts): String = {
    val sb = new StringBuilder
    sb.append("== Table 6: T3 selection frequency (180 instances) ==\n")
    sb.append(f"           | Tau-Push |   PI | No difference\n")
    sb.append(f"ours       | ${c.tauPush}%8d | ${c.pi}%4d | ${c.noDifference}%13d\n")
    sb.append(f"paper      | ${PaperNumbers.T6("Tau-Push")}%8d | ${PaperNumbers.T6("PI")}%4d | ${PaperNumbers.T6("No difference")}%13d\n")
    sb.toString
  }
}
