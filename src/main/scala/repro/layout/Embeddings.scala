package repro.layout

import java.util.Random
import breeze.linalg.{DenseMatrix, DenseVector}
import repro.graph.LocalGraph

/** GFactor [3] — distributed graph factorization, d = 2: SGD on
  * `Σ_{(i,j)∈E} (A_ij − ⟨y_i, y_j⟩)² + (λ/2)·Σ ||y_i||²`.
  */
object GFactor {

  val Epochs = 200; val Eta = 0.02; val Lambda = 0.05

  def layout(g: LocalGraph, seed: Long = 0): Array[Array[Double]] = {
    val n   = g.n
    val rnd = new Random(seed)
    val y   = Array.fill(n, 2)(rnd.nextDouble() * 0.1 - 0.05)
    val edges = g.arcs.filter { case (s, d) => s != d }.toArray
    var e = 0
    while (e < Epochs) {
      edges.foreach { case (i, j) =>
        val dot = y(i)(0) * y(j)(0) + y(i)(1) * y(j)(1)
        val err = 1.0 - dot
        val gi0 = err * y(j)(0) - Lambda * y(i)(0)
        val gi1 = err * y(j)(1) - Lambda * y(i)(1)
        y(i)(0) += Eta * gi0; y(i)(1) += Eta * gi1
      }
      e += 1
    }
    y
  }
}

/** SDNE-lite — shallow stand-in for the SDNE deep autoencoder [77] (see
  * DESIGN.md §3): linear encoder Z = A·W1 (n→2), sigmoid decoder
  * Â = σ(Z·W2) (2→n), trained full-batch on SDNE's composite loss — 2nd-order
  * reconstruction with β-weighted nonzero entries plus the 1st-order
  * Laplacian term ν·tr(Zᵀ L Z).
  */
object Sdne {

  val Eta = 0.01; val Beta = 5.0; val Nu = 1e-3

  def layout(g: LocalGraph, epochs: Int = 150, seed: Long = 0): Array[Array[Double]] = {
    val n   = g.n
    val rnd = new Random(seed)
    val a   = Spectral.symAdjacency(g)
    val deg = DenseVector.tabulate(n)(v => breeze.linalg.sum(a(v, ::).t))
    val lap = breeze.linalg.diag(deg) - a // graph Laplacian for the 1st-order term

    var w1 = DenseMatrix.tabulate(n, 2)((_, _) => rnd.nextGaussian() * 0.01)
    var w2 = DenseMatrix.tabulate(2, n)((_, _) => rnd.nextGaussian() * 0.01)
    val b  = DenseMatrix.tabulate(n, n)((i, j) => if (a(i, j) != 0.0) Beta else 1.0)

    var e = 0
    while (e < epochs) {
      val z    = a * w1                       // n×2
      val pre  = z * w2                       // n×n
      val ahat = breeze.numerics.sigmoid(pre)
      val dAhat = (ahat - a) *:* b *:* ahat *:* (DenseMatrix.ones[Double](n, n) - ahat)
      val gW2   = z.t * dAhat                 // 2×n
      val dZ    = dAhat * w2.t + (lap * z) * (2.0 * Nu)
      val gW1   = a.t * dZ                    // n×2
      w1 = w1 - gW1 * Eta
      w2 = w2 - gW2 * Eta
      e += 1
    }
    val z = a * w1
    Array.tabulate(n)(v => Array(z(v, 0), z(v, 1)))
  }
}
