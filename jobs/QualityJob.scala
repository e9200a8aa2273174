package repro.jobs

import repro.exp.{Experiments, ExpRow, Tables}

/** Reproduces the Fig. 5 clustering-quality comparison (distortion vs
  * iteration and vs time) as tables, one dataset per run, and checks its
  * shape claims.
  *
  * Usage: `spark-submit --class repro.jobs.QualityJob <jar> [dataset] [n] [k] [iters]`
  * with dataset in {sift, glove, gist}.
  */
object QualityJob {
  def main(args: Array[String]): Unit = JobSession.run("quality") { spark =>
    val dataset = if (args.nonEmpty) args(0) else "sift"
    val n = JobSession.intArg(args, 1, 20000)
    val k = JobSession.intArg(args, 2, 1000)
    val rows = Tables.quality(spark, dataset, n = n, k = k, iters = JobSession.intArg(args, 3, 12))
    println(s"== Fig. 5 (as table): $dataset-lite, n=$n, k=$k ==")
    println(Experiments.fmtTable(rows))
    rows.foreach { r =>
      println(s"${r.method} distortion-by-iteration: " +
        r.distortionByIter.map(x => f"$x%.4f").mkString(", "))
    }
    claims(rows)
  }

  /** Paper: BKM best quality; GK-means within a whisker; Mini-Batch clearly
    * worse; closure k-means worse than GK-means; GK-means iterations cheaper
    * than full-scan ones (the *total*-time win of Fig. 5(b) needs the paper's
    * n and k; see EXPERIMENTS.md).
    */
  def claims(rows: Seq[ExpRow]): Seq[Claim] = {
    val bkm = rows.find(_.method == "BKM").get
    val gk = rows.find(_.method == "GK-means").get
    val mb = rows.find(_.method == "Mini-Batch").get
    val cl = rows.find(_.method == "closure k-means").get
    val ll = rows.find(_.method == "k-means").get
    Seq(
      Claim("gk_e_near_bkm", gk.distortion <= bkm.distortion * 1.10, s"gk=${gk.distortion} bkm=${bkm.distortion}"),
      Claim("minibatch_e_ge_bkm", mb.distortion >= bkm.distortion, s"mb=${mb.distortion} bkm=${bkm.distortion}"),
      Claim("closure_e_ge_gk", cl.distortion >= gk.distortion, s"cl=${cl.distortion} gk=${gk.distortion}"),
      Claim("gk_iter_le_kmeans", gk.iterSec <= ll.iterSec * 1.2, s"gk iter=${gk.iterSec}s lloyd iter=${ll.iterSec}s"),
    )
  }
}
