package table2bench

import repro.core.{LocalKMeans, VecOps}
import repro.knn.KnnGraph
import scala.util.Random

/** Warmed `nanoTime` micro-benches of the kernels under the move pass and
  * the Alg. 3 in-cluster join.
  */
object Kernels {

  /** One kernel at one dimension: the measured time and, computed from the
    * vector sizes, the flops and bytes one call does and reads.
    */
  final case class KernelRow(kernel: String, d: Int, nsPerDim: Double, flopsPerCall: Long, bytesPerCall: Long)

  /** Vectors per pool: enough that calls do not reread one cached pair. */
  private val Pool = 256
  @volatile private var sink = 0.0

  /** Median ns per unit of work over `reps` blocks of `calls` calls, each
    * call doing `units` units; three untimed blocks warm the JIT first.
    */
  private def timeIt(reps: Int, calls: Int, units: Double)(body: Int => Double): Double = {
    val samples = (0 until 3 + reps).map { _ =>
      val t0 = System.nanoTime()
      var i = 0; var s = 0.0
      while (i < calls) { s += body(i); i += 1 }
      sink += s
      (System.nanoTime() - t0).toDouble / (calls * units)
    }
    Stats.median(samples.drop(3))
  }

  def vecOps(dims: Seq[Int] = Seq(64, 128, 480), seed: Long = 1): Seq[KernelRow] = {
    val rng = new Random(seed)
    dims.flatMap { d =>
      val fa = Array.fill(Pool, d)(rng.nextFloat())
      val fb = Array.fill(Pool, d)(rng.nextFloat())
      val db = Array.fill(Pool, d)(rng.nextDouble())
      val calls = math.max(20000, 20000000 / d)
      Seq(
        // flops: one multiply and one add per dimension (sqDist adds a subtract).
        KernelRow("dotFD", d, timeIt(7, calls, d)(i => VecOps.dotFD(fa(i % Pool), db((i * 7) % Pool))), 2L * d, 12L * d),
        KernelRow("sqDistFF", d, timeIt(7, calls, d)(i => VecOps.sqDistFF(fa(i % Pool), fb((i * 7) % Pool))), 3L * d, 8L * d),
        KernelRow("sqDistFD", d, timeIt(7, calls, d)(i => VecOps.sqDistFD(fa(i % Pool), db((i * 7) % Pool))), 3L * d, 12L * d),
      )
    }
  }

  /** ns per point pair of the exhaustive in-cluster k-NN of one Alg. 3
    * cluster (m = ξ members, top-κ kept).
    */
  def inClusterTopK(m: Int, kappa: Int, d: Int, seed: Long = 2): Double = {
    val rng = new Random(seed)
    val groups = Array.fill(16)(Array.fill(m, d)(rng.nextFloat()))
    val ids = Array.tabulate(m)(_.toLong)
    val pairs = m.toDouble * (m - 1) / 2
    timeIt(7, 256, pairs)(i => LocalKMeans.inClusterTopK(ids, groups(i % groups.length), kappa).length.toDouble)
  }

  /** ns per `KnnGraph.merge` call on filled κ-rows, with candidate distances
    * drawn so that some are inserted and most are rejected, as in later rounds.
    */
  def graphMerge(n: Int, kappa: Int, seed: Long = 3): Double = {
    val rng = new Random(seed)
    val g = KnnGraph.random(n, kappa, seed)
    var i = 0
    while (i < n) {
      val ds = Array.fill(kappa)(rng.nextDouble()).sorted
      System.arraycopy(ds, 0, g.dists(i), 0, kappa)
      i += 1
    }
    val calls = 200000
    val rows = Array.fill(calls)(rng.nextInt(n))
    val cands = Array.fill(calls)(rng.nextInt(n))
    val dists = Array.fill(calls)(rng.nextDouble() * 2.0)
    timeIt(7, calls, 1.0)(c => if (g.merge(rows(c), cands(c), dists(c))) 1.0 else 0.0)
  }
}
