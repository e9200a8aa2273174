package repro.knn

import org.apache.spark.sql.Dataset
import repro.core.{Point, Points, VecOps}
import repro.eval.Metrics
import scala.util.Random

/** One local-join task's merged graph rows, for the nodes `[lo, lo +
  * ids.length / κ)`, row after row in two flat arrays, and how many
  * candidates it inserted.
  */
private final case class JoinRows(lo: Int, ids: Array[Int], dists: Array[Double], inserted: Long)

/** NN-Descent / KGraph baseline (Dong et al., WWW'11) — the construction
  * algorithm the paper compares Alg. 3 against ("KGraph+GK-means" runs).
  *
  * Standard formulation with new/old entries and sampled reverse neighbours:
  * each round does a local join between every node's *new* candidates and
  * its new∪old candidates; distances for candidate pairs update both
  * endpoints' top-κ rows. An entry is new when the previous round put it in
  * its row (every entry of the initial graph is new), so the driver tells
  * new from old by the rows as they stood when that round started. Each
  * round is one Spark job over the node ids, cut into contiguous ranges,
  * with no shuffle: a task copies its range's rows, walks every node's
  * candidate pairs in node order, measures the pairs with an endpoint in
  * its range (a pair across two ranges is measured by both tasks) and
  * merges them into its rows at their node ids, so each row takes its
  * candidates in node order, whatever the partitioning. The model (graph
  * rows) lives on the driver like the centroid state does for clustering —
  * vectors are broadcast for random access, which bounds this
  * implementation to broadcastable n·d (documented; the paper's own
  * observation is that NN-Descent degrades at very large n).
  */
object NNDescent {

  /** A round that inserts fewer than this share of the n·κ entries ends the build. */
  private val ConvergenceDelta = 0.002

  def build(
      points: Dataset[Point],
      n: Int,
      d: Int,
      kappa: Int,
      maxIters: Int = 8,
      rho: Double = 0.5,
      seed: Long = 11,
      probe: Option[Probe] = None,
  ): BuildResult = {
    require(kappa < n, s"need kappa=$kappa < n=$n")
    require(maxIters >= 0, s"need maxIters=$maxIters >= 0")
    require(rho > 0 && rho <= 1, s"need 0 < rho=$rho <= 1")
    val sc = points.sparkSession.sparkContext
    val t0 = System.nanoTime()
    val vecs = Points.collectVecs(points, n, d)
    val bcV = sc.broadcast(vecs)
    val recalls = Vector.newBuilder[Double]
    try {
      // Random graph with measured distances: each row's ids, in ascending
      // order, merge into the row, whose MaxValue entries are the placeholders.
      val graph = KnnGraph.random(n, kappa, seed)
      for (i <- 0 until n) graph.ids(i).sorted.foreach(j => graph.merge(i, j, VecOps.sqDistFF(vecs(i), vecs(j))))
      // The rows as the previous round started; null before the first round.
      var before: Array[Array[Int]] = null
      def isNew(i: Int, id: Int): Boolean = before == null || {
        val row = before(i)
        var p = 0
        while (p < row.length && row(p) != id) p += 1
        p == row.length
      }
      val rng = new Random(seed ^ 0xBEEF)
      val sampleCap = math.max(1, (rho * kappa).toInt)

      var t = 0
      var done = false
      while (t < maxIters && !done) {
        // Reverse lists of new / old entries, sampled to ρκ per node.
        val revNew = Array.fill(n)(List.empty[Int])
        val revOld = Array.fill(n)(List.empty[Int])
        for (i <- 0 until n; tgt <- graph.ids(i)) if (isNew(i, tgt)) revNew(tgt) ::= i else revOld(tgt) ::= i
        def sampled(l: List[Int]): Array[Int] = {
          val a = l.toArray
          if (a.length <= sampleCap) a
          else rng.shuffle(a.toSeq).take(sampleCap).toArray
        }
        val newsArr = new Array[Array[Int]](n)
        val oldsArr = new Array[Array[Int]](n)
        for (i <- 0 until n) {
          newsArr(i) = (graph.ids(i).filter(isNew(i, _)) ++ sampled(revNew(i))).distinct
          oldsArr(i) = (graph.ids(i).filterNot(isNew(i, _)) ++ sampled(revOld(i))).distinct
        }

        val bcIds = sc.broadcast(graph.ids)
        val bcDists = sc.broadcast(graph.dists)
        // candidate lists travel as broadcasts, not inside stage task binaries
        val bcNews = sc.broadcast(newsArr)
        val bcOlds = sc.broadcast(oldsArr)
        val merged =
          try {
            Points.runJob(sc.parallelize(0 until n, sc.defaultParallelism), "knn.NNDescent.build") { it =>
              val nodes = it.toArray
              val lo = if (nodes.isEmpty) 0 else nodes(0)
              val hi = lo + nodes.length
              val vs = bcV.value; val allNews = bcNews.value; val allOlds = bcOlds.value
              // Tasks in one JVM share the broadcast rows, so a task merges
              // into copies of its own range's rows only.
              val g = new KnnGraph(bcIds.value.clone(), bcDists.value.clone())
              for (r <- lo until hi) { g.ids(r) = g.ids(r).clone(); g.dists(r) = g.dists(r).clone() }
              var inserted = 0L
              def pair(a: Int, b: Int): Unit = {
                val inA = a >= lo && a < hi; val inB = b >= lo && b < hi
                if (inA || inB) {
                  val dd = VecOps.sqDistFF(vs(a), vs(b))
                  if (inA && g.merge(a, b, dd)) inserted += 1
                  if (inB && g.merge(b, a, dd)) inserted += 1
                }
              }
              var u = 0
              while (u < n) {
                val news = allNews(u); val olds = allOlds(u)
                var a = 0
                while (a < news.length) {
                  var b = a + 1
                  while (b < news.length) { pair(news(a), news(b)); b += 1 }
                  b = 0
                  while (b < olds.length) { if (news(a) != olds(b)) pair(news(a), olds(b)); b += 1 }
                  a += 1
                }
                u += 1
              }
              JoinRows(lo, g.ids.slice(lo, hi).flatten, g.dists.slice(lo, hi).flatten, inserted)
            }
          } finally { bcIds.destroy(); bcDists.destroy(); bcNews.destroy(); bcOlds.destroy() }

        before = graph.ids.clone()
        merged.foreach { r =>
          for (i <- 0 until r.ids.length / kappa) {
            graph.ids(r.lo + i) = r.ids.slice(i * kappa, (i + 1) * kappa)
            graph.dists(r.lo + i) = r.dists.slice(i * kappa, (i + 1) * kappa)
          }
        }
        probe.foreach { pr =>
          recalls += Metrics.recallTop1(graph.ids, graph.dists, pr.probeIds, pr.trueIds, pr.trueDists)
        }
        done = merged.map(_.inserted).sum < ConvergenceDelta * n * kappa
        t += 1
      }
      BuildResult(graph, (System.nanoTime() - t0) / 1000000, recalls.result(), vecs, Vector.empty)
    } finally bcV.destroy()
  }
}
