package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.PDist
import repro.graph.{GraphGen, LocalGraph}
import repro.layout._
import repro.metrics.Aesthetics
import repro.ppr.PowerIteration
import repro.viz.PPRviz

/** Tables 4, 5 and 11: ND / ULCV / AR of PPRviz and the 11 baselines on the
  * 6 small graphs, single-level.
  */
object QualityTables {

  final case class Cell(nd: Double, ulcv: Option[Double], ar: Double)
  final case class Result(rows: Map[(String, String), Cell])

  val Seed = 7L // every method's layout seed

  /** PPRviz single-level layout: exact PDist (near-exact PPR by PI, as the
    * quality experiments isolate the distance measure; T6 shows Tau-Push is
    * perceptually indistinguishable) + stress majorization.
    */
  def pprvizLayout(g: LocalGraph): Array[Array[Double]] = {
    val dppr  = PowerIteration.dpprMatrix(g, PPRviz.DefaultAlpha)
    val pdist = PDist.matrix(dppr, g.n)
    StressMajorization.layout(pdist, Seed)
  }

  /** All 12 layout methods, in paper column order. */
  def methods(spark: SparkSession): Seq[(String, LocalGraph => Array[Array[Double]])] = Seq(
    "PPRviz"     -> ((g: LocalGraph) => pprvizLayout(g)),
    "OpenOrd/FR" -> ((g: LocalGraph) => ForceDirected.fr(g, seed = Seed)),
    "LinLog"     -> ((g: LocalGraph) => ForceDirected.linLog(g, seed = Seed)),
    "ForceAtlas" -> ((g: LocalGraph) => ForceDirected.forceAtlas(g, seed = Seed)),
    "CMDS"       -> ((g: LocalGraph) => Cmds.layout(g, Seed)),
    "PMDS"       -> ((g: LocalGraph) => Pmds.layout(g, seed = Seed)),
    "GFactor"    -> ((g: LocalGraph) => GFactor.layout(g, seed = Seed)),
    "SDNE"       -> ((g: LocalGraph) => Sdne.layout(g, seed = Seed)),
    "LapEig"     -> ((g: LocalGraph) => Spectral.lapEig(g)),
    "LLE"        -> ((g: LocalGraph) => Spectral.lle(g)),
    "Node2vec"   -> ((g: LocalGraph) => Node2vecLayout.layout(spark, g, seed = Seed)),
    "SimRank"    -> ((g: LocalGraph) => SimRankDist.layout(g, Seed)),
  )

  def evaluate(g: LocalGraph, x: Array[Array[Double]]): Cell = {
    val xn    = Aesthetics.normalize(x)
    val edges = Aesthetics.undirectedEdges(g)
    Cell(Aesthetics.nd(xn), Aesthetics.ulcv(xn, edges), Aesthetics.ar(xn, g))
  }

  def run(spark: SparkSession, graphs: Seq[(String, LocalGraph)] = GraphGen.smallGraphs): Result = {
    val rows = for {
      (gName, g)   <- graphs
      (mName, fn)  <- methods(spark)
    } yield {
      val cell = evaluate(g, fn(g))
      (gName, mName) -> cell
    }
    Result(rows.toMap)
  }

  def fmtNd(v: Double): String =
    if (v.isInfinite) "inf" else f"$v%.1E"

  def fmtUlcv(v: Option[Double]): String =
    v.map(x => f"$x%.2f").getOrElse("-")

  def fmtAr(v: Double): String = f"$v%.2E"

  /** Print Tables 4/5/11 with the paper's numbers interleaved. */
  def render(res: Result): String = {
    val sb = new StringBuilder
    def table(title: String, paper: Map[String, Seq[String]], pick: Cell => String): Unit = {
      sb.append(s"== $title ==\n")
      sb.append("graph      | " + PaperNumbers.QualityMethods.map(m => f"$m%11s").mkString(" ") + "\n")
      PaperNumbers.SmallGraphs.foreach { gName =>
        val ours = PaperNumbers.QualityMethods.map { m =>
          res.rows.get((gName, m)).map(pick).getOrElse("?")
        }
        sb.append(f"$gName%-10s | " + ours.map(v => f"$v%11s").mkString(" ") + "  (ours)\n")
        sb.append(f"$gName%-10s | " + paper(gName).map(v => f"$v%11s").mkString(" ") + "  (paper)\n")
      }
      sb.append("\n")
    }
    table("Table 4: ND",    PaperNumbers.T4_ND,   c => fmtNd(c.nd))
    table("Table 5: ULCV",  PaperNumbers.T5_ULCV, c => fmtUlcv(c.ulcv))
    table("Table 11: AR",   PaperNumbers.T11_AR,  c => fmtAr(c.ar))
    sb.toString
  }
}
