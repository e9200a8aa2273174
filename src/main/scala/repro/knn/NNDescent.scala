package repro.knn

import org.apache.spark.sql.Dataset
import repro.core.{Point, Points, VecOps}
import repro.eval.Metrics
import scala.util.Random

/** One local-join task's merged graph rows, for the nodes `[lo, lo +
  * fresh.length / κ)`, row after row in three flat arrays, and how many
  * candidates it inserted.
  */
private final case class JoinRows(lo: Int, ids: Array[Int], dists: Array[Double], fresh: Array[Boolean], inserted: Long)

/** NN-Descent / KGraph baseline (Dong et al., WWW'11) — the construction
  * algorithm the paper compares Alg. 3 against ("KGraph+GK-means" runs).
  *
  * Standard formulation with new/old flags and sampled reverse neighbours:
  * each round does a local join between every node's *new* candidates and
  * its new∪old candidates; distances for candidate pairs update both
  * endpoints' top-κ rows. Each round is one Spark job over the node ids,
  * cut into contiguous ranges, with no shuffle: a task walks every node's
  * candidate pairs in node order, measures the pairs with an endpoint in
  * its range (a pair across two ranges is measured by both tasks) and
  * merges them into its nodes' rows, so each row takes its candidates in
  * node order, whatever the partitioning. The model (graph rows + flags)
  * lives on the driver like the centroid state
  * does for clustering — vectors are broadcast for random access, which
  * bounds this implementation to broadcastable n·d (documented; the paper's
  * own observation is that NN-Descent degrades at very large n).
  */
object NNDescent {

  def build(
      points: Dataset[Point],
      n: Int,
      d: Int,
      kappa: Int,
      maxIters: Int = 8,
      rho: Double = 0.5,
      seed: Long = 11,
      convergenceDelta: Double = 0.002,
      probe: Option[Probe] = None,
  ): BuildResult = {
    require(kappa < n, s"need kappa=$kappa < n=$n")
    val sp = points.sparkSession
    val t0 = System.nanoTime()
    val vecs = Points.collectVecs(points, n, d)
    val bcV = sp.sparkContext.broadcast(vecs)
    val recalls = Vector.newBuilder[Double]
    try {
      // Random graph with measured distances: each row's ids, in ascending
      // order, merge into the row, whose MaxValue entries are the placeholders.
      val graph = KnnGraph.random(n, kappa, seed)
      var i = 0
      while (i < n) {
        graph.ids(i).sorted.foreach(j => graph.merge(i, j, VecOps.sqDistFF(vecs(i), vecs(j))))
        i += 1
      }
      val fresh = Array.fill(n, kappa)(true)
      val rng = new Random(seed ^ 0xBEEF)
      val sampleCap = math.max(1, (rho * kappa).toInt)

      var t = 0
      var done = false
      while (t < maxIters && !done) {
        // Reverse lists of new / old entries, sampled to ρκ per node.
        val revNew = Array.fill(n)(List.empty[Int])
        val revOld = Array.fill(n)(List.empty[Int])
        i = 0
        while (i < n) {
          var j = 0
          while (j < kappa) {
            val tgt = graph.ids(i)(j)
            if (fresh(i)(j)) revNew(tgt) ::= i else revOld(tgt) ::= i
            j += 1
          }
          i += 1
        }
        def sampled(l: List[Int]): Array[Int] = {
          val a = l.toArray
          if (a.length <= sampleCap) a
          else rng.shuffle(a.toSeq).take(sampleCap).toArray
        }
        val newsArr = new Array[Array[Int]](n)
        val oldsArr = new Array[Array[Int]](n)
        i = 0
        while (i < n) {
          newsArr(i) = (graph.ids(i).indices.filter(fresh(i)(_)).map(graph.ids(i)(_)) ++ sampled(revNew(i))).distinct.toArray
          oldsArr(i) = (graph.ids(i).indices.filterNot(fresh(i)(_)).map(graph.ids(i)(_)) ++ sampled(revOld(i))).distinct.toArray
          i += 1
        }
        // All entries participating this round become old.
        i = 0
        while (i < n) { java.util.Arrays.fill(fresh(i), false); i += 1 }

        val bcIds = sp.sparkContext.broadcast(graph.ids)
        val bcDists = sp.sparkContext.broadcast(graph.dists)
        // candidate lists travel as broadcasts, not inside stage task binaries
        val bcNews = sp.sparkContext.broadcast(newsArr)
        val bcOlds = sp.sparkContext.broadcast(oldsArr)
        val merged =
          try {
            Points.runJob(sp.sparkContext.parallelize(0 until n, sp.sparkContext.defaultParallelism), "knn.NNDescent.build") { it =>
              val nodes = it.toArray
              val lo = if (nodes.isEmpty) 0 else nodes(0)
              val hi = lo + nodes.length
              val vs = bcV.value; val allNews = bcNews.value; val allOlds = bcOlds.value
              // One single-row graph per node of the range, merged as row 0.
              val rows = nodes.map(i => new KnnGraph(Array(bcIds.value(i).clone()), Array(bcDists.value(i).clone())))
              val insertedIds = Array.fill(nodes.length)(new java.util.HashSet[Int]())
              var inserted = 0L
              def offer(node: Int, nbr: Int, dd: Double): Unit =
                if (node >= lo && node < hi && rows(node - lo).merge(0, nbr, dd)) { inserted += 1; insertedIds(node - lo).add(nbr) }
              def pair(a: Int, b: Int): Unit =
                if ((a >= lo && a < hi) || (b >= lo && b < hi)) {
                  val dd = VecOps.sqDistFF(vs(a), vs(b))
                  offer(a, b, dd); offer(b, a, dd)
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
              val fresh = nodes.indices.flatMap(r => rows(r).ids(0).map(insertedIds(r).contains)).toArray
              JoinRows(lo, rows.flatMap(_.ids(0)), rows.flatMap(_.dists(0)), fresh, inserted)
            }
          } finally { bcIds.destroy(); bcDists.destroy(); bcNews.destroy(); bcOlds.destroy() }

        var updates = 0L
        merged.foreach { r =>
          var i = 0
          while (i * kappa < r.ids.length) {
            val node = r.lo + i
            graph.ids(node) = r.ids.slice(i * kappa, (i + 1) * kappa)
            graph.dists(node) = r.dists.slice(i * kappa, (i + 1) * kappa)
            fresh(node) = r.fresh.slice(i * kappa, (i + 1) * kappa)
            i += 1
          }
          updates += r.inserted
        }
        probe.foreach { pr =>
          recalls += Metrics.recallTop1(graph.ids, graph.dists, pr.probeIds, pr.trueIds, pr.trueDists)
        }
        done = updates < convergenceDelta * n * kappa
        t += 1
      }
      BuildResult(graph, (System.nanoTime() - t0) / 1000000, recalls.result(), vecs, Vector.empty)
    } finally bcV.destroy()
  }
}
