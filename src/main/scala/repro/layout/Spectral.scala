package repro.layout

import breeze.linalg.{eigSym, DenseMatrix}
import repro.graph.LocalGraph

/** Spectral graph-embedding baselines (§7.1 category (iii)): Laplacian
  * Eigenmaps [9] and Locally Linear Embedding [64] adapted to graphs via
  * the adjacency matrix (the standard adaptation in the embedding surveys
  * the paper cites [30]).
  */
object Spectral {

  /** Dense 0/1 adjacency of the undirected view, self-loops dropped. */
  private[layout] def symAdjacency(g: LocalGraph): DenseMatrix[Double] = {
    val a = DenseMatrix.zeros[Double](g.n, g.n)
    g.arcs.foreach { case (s, d) => if (s != d) { a(s, d) = 1.0; a(d, s) = 1.0 } }
    a
  }

  /** LapEig: the eigenvectors of the symmetric-normalized Laplacian
    * `L = I − D^{-1/2} A D^{-1/2}` for the 2nd and 3rd smallest eigenvalues.
    */
  def lapEig(g: LocalGraph): Array[Array[Double]] = {
    val n = g.n
    val a = symAdjacency(g)
    val deg = Array.tabulate(n)(v => math.max(breeze.linalg.sum(a(v, ::).t), 1e-12))
    val l = DenseMatrix.tabulate(n, n) { (i, j) =>
      val base = if (i == j) 1.0 else 0.0
      base - a(i, j) / math.sqrt(deg(i) * deg(j))
    }
    smallestNontrivial(l)
  }

  /** LLE on graphs: reconstruction weights W = row-normalized adjacency,
    * embedding from the bottom eigenvectors of M = (I−W)ᵀ(I−W).
    */
  def lle(g: LocalGraph): Array[Array[Double]] = {
    val n = g.n
    val a = symAdjacency(g)
    val w = DenseMatrix.tabulate(n, n) { (i, j) =>
      val rs = breeze.linalg.sum(a(i, ::).t)
      if (rs > 0) a(i, j) / rs else 0.0
    }
    val iw = DenseMatrix.eye[Double](n) - w
    smallestNontrivial(iw.t * iw)
  }

  /** Eigenvectors of the 2nd and 3rd smallest eigenvalues as coordinates. */
  private def smallestNontrivial(m: DenseMatrix[Double]): Array[Array[Double]] = {
    val n   = m.rows
    val es  = eigSym((m + m.t) *:* 0.5) // enforce exact symmetry
    val ord = es.eigenvalues.toArray.zipWithIndex.sortBy(_._1).map(_._2)
    val c1  = ord(math.min(1, n - 1))
    val c2  = ord(math.min(2, n - 1))
    Array.tabulate(n)(v => Array(es.eigenvectors(v, c1), es.eigenvectors(v, c2)))
  }
}
