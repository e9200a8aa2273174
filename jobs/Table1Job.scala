package repro.jobs

import repro.exp.Tables

/** Reproduces paper Table 1 (overview of datasets) on the synthetic
  * stand-ins. Usage: `spark-submit --class repro.jobs.Table1Job <jar>`.
  */
object Table1Job {
  def main(args: Array[String]): Unit = JobSession.run("table1") { spark =>
    val rows = Tables.table1(spark)
    println("== Table 1: Overview of Datasets (paper scale -> synthetic stand-in) ==")
    println(Tables.fmtTable1(rows))
    claims(rows)
  }

  /** Every stand-in has at least 20K points. */
  def claims(rows: Seq[Tables.DatasetRow]): Seq[Claim] =
    Seq(Claim("n_at_least_20k", rows.forall(_.n >= 20000), rows.map(r => s"${r.name}=${r.n}").mkString(" ")))
}
