//! Seeded SQL workload-file generator.
//!
//! Emits a self-contained workload file in the dialect `parse_workload_file` reads: a
//! `SCHEMA` line, `TABLE` declarations with primary keys, `FOREIGN KEY` declarations, and
//! `PROGRAM` blocks mixing key- and predicate-based `SELECT`/`UPDATE`/`DELETE`, `INSERT`,
//! `IF … ELSE … ENDIF` and `REPEAT … END REPEAT`.
//!
//! The shape of a file is fixed by the arguments: table count, foreign-key tree, program count,
//! each program's control-flow skeleton and statement count. Every seed therefore unfolds to
//! the same number of linear programs. The seed deals statement kinds and tables from
//! balanced decks (each kind and each table appears equally often in a file, in seeded
//! order) and picks attributes and key parameters, so files differ in which statements meet
//! where, while the per-file cost of analyzing them stays comparable.

use crate::rng::Rng;

/// Attributes of every generated table besides its key `k` and foreign-key column `p`.
const ATTRS: [&str; 3] = ["a", "b", "c"];

/// A generated workload file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedWorkload {
    /// The whole file: catalog plus every program block.
    pub text: String,
    /// Program names, in file order.
    pub names: Vec<String>,
    /// Each program's `PROGRAM … { … }` block on its own, in file order (the text an
    /// `add_program` request carries).
    pub blocks: Vec<String>,
}

/// Generates a workload of `programs` programs over `tables` tables from `seed`.
pub fn generate(seed: u64, tables: usize, programs: usize) -> GeneratedWorkload {
    assert!(
        tables >= 2,
        "the generator needs a parent and a child table"
    );
    let mut rng = Rng::new(seed ^ 0x5EED_F5A1);
    // A binary foreign-key tree: table t references table (t - 1) / 2.
    let parents: Vec<usize> = (0..tables).map(|t| t.saturating_sub(1) / 2).collect();
    let statements: usize = (0..programs).map(|j| SKELETON_STATEMENTS[j % 4]).sum();
    let mut deck = Deck {
        kinds: rng.shuffled((0..statements).map(|i| i % KINDS).collect()),
        tables: rng.shuffled((0..statements).map(|i| i % tables).collect()),
        children: rng.shuffled((0..programs).map(|j| 1 + j % (tables - 1)).collect()),
        rng,
    };

    let mut text = format!("-- Generated workload (seed {seed}).\nSCHEMA gen{seed};\n\n");
    for t in 0..tables {
        text.push_str(&format!(
            "TABLE R{t} (k{t}, p{t}, a{t}, b{t}, c{t}, PRIMARY KEY (k{t}));\n"
        ));
    }
    text.push('\n');
    for (t, &parent) in parents.iter().enumerate().skip(1) {
        text.push_str(&format!(
            "FOREIGN KEY fk{t}: R{t} (p{t}) REFERENCES R{parent} (k{parent});\n"
        ));
    }

    let mut names = Vec::with_capacity(programs);
    let mut blocks = Vec::with_capacity(programs);
    for j in 0..programs {
        let name = format!("Gen{j}");
        let block = program_block(&mut deck, &name, j, &parents);
        text.push('\n');
        text.push_str(&block);
        names.push(name);
        blocks.push(block);
    }
    GeneratedWorkload {
        text,
        names,
        blocks,
    }
}

/// Statement kinds [`Deck::statement`] deals.
const KINDS: usize = 8;

/// Seeded statements per program, by program index modulo 4 (see [`program_block`]).
const SKELETON_STATEMENTS: [usize; 4] = [1, 2, 2, 1];

/// What the seed deals a file's statements from.
struct Deck {
    kinds: Vec<usize>,
    tables: Vec<usize>,
    children: Vec<usize>,
    rng: Rng,
}

impl Deck {
    /// The next statement: its kind and table off the decks, attributes and key from the rng.
    fn statement(&mut self) -> String {
        let kind = self.kinds.pop().expect("one kind per statement");
        let t = self.tables.pop().expect("one table per statement");
        let a = ATTRS[self.rng.below(3) as usize];
        let b = ATTRS[self.rng.below(3) as usize];
        let key = ["K0", "K2"][self.rng.below(2) as usize];
        match kind {
            0 => format!("SELECT {a}{t}, {b}{t} FROM R{t} WHERE k{t} = :{key};"),
            1 => format!("SELECT {a}{t} FROM R{t} WHERE {b}{t} >= :T;"),
            2 => format!("UPDATE R{t} SET {a}{t} = {a}{t} + :V WHERE k{t} = :{key};"),
            3 => format!("UPDATE R{t} SET {a}{t} = :V WHERE {b}{t} < :T;"),
            4 => format!("DELETE FROM R{t} WHERE k{t} = :{key};"),
            5 => format!("DELETE FROM R{t} WHERE {a}{t} < :T;"),
            6 => format!(
                "INSERT INTO R{t} (k{t}, p{t}, a{t}, b{t}, c{t}) VALUES (:K2, :K1, :V, :V, :V);"
            ),
            _ => format!("SELECT {a}{t} INTO :y FROM R{t} WHERE k{t} = :{key};"),
        }
    }
}

/// One program. The skeleton depends on the program's index only; the deck fills it in.
fn program_block(deck: &mut Deck, name: &str, index: usize, parents: &[usize]) -> String {
    // Every program opens with a child-table lookup that binds the foreign-key column to :K1
    // and later touches the parent row keyed by :K1, so the translator infers one foreign-key
    // constraint per program.
    let child = deck.children.pop().expect("one child table per program");
    let parent = parents[child];
    let mut body = vec![format!(
        "SELECT a{child} INTO :x FROM R{child} WHERE k{child} = :K0 AND p{child} = :K1;"
    )];
    let parent_write =
        format!("UPDATE R{parent} SET b{parent} = b{parent} + :V WHERE k{parent} = :K1;");
    match index % 4 {
        0 => {
            body.push(deck.statement());
            body.push(parent_write);
        }
        1 => {
            body.push(format!(
                "IF :x < :V THEN\n        {}\n    ELSE\n        {}\n    ENDIF;",
                deck.statement(),
                deck.statement()
            ));
            body.push(parent_write);
        }
        2 => {
            body.push(parent_write);
            body.push(format!(
                "IF :x > :T THEN\n        {}\n        {}\n    ENDIF;",
                deck.statement(),
                deck.statement()
            ));
        }
        _ => {
            body.push(format!(
                "REPEAT\n        {}\n    END REPEAT;",
                deck.statement()
            ));
            body.push(parent_write);
        }
    }
    let mut block = format!("PROGRAM {name}(:K0, :K1, :K2, :V, :T) {{\n");
    for line in body {
        block.push_str("    ");
        block.push_str(&line);
        block.push('\n');
    }
    block.push_str("}\n");
    block
}

/// The generator's self-check: the same seed gives byte-identical text, and the text parses
/// into exactly the generated programs. Returns a description of the first failure.
pub fn self_check(seed: u64, tables: usize, programs: usize) -> Result<GeneratedWorkload, String> {
    let first = generate(seed, tables, programs);
    if generate(seed, tables, programs) != first {
        return Err(format!("seed {seed}: two generations differ"));
    }
    let (_, parsed) = mvrc_btp::sql::parse_workload_file(&first.text)
        .map_err(|e| format!("seed {seed}: generated text does not parse: {e}"))?;
    let parsed_names: Vec<&str> = parsed.iter().map(|p| p.name()).collect();
    if parsed_names != first.names.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!(
            "seed {seed}: parsed programs {parsed_names:?} differ"
        ));
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_parse() {
        for seed in 0..32 {
            let generated = self_check(seed, 6, 14).unwrap();
            assert_eq!(generated.blocks.len(), 14);
            assert!(generated.text.contains("FOREIGN KEY"));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1, 6, 14).text, generate(2, 6, 14).text);
    }

    #[test]
    fn every_seed_unfolds_to_the_same_shape() {
        let ltps = |seed| {
            let (schema, programs) =
                mvrc_btp::sql::parse_workload_file(&generate(seed, 6, 14).text).unwrap();
            mvrc_btp::Workload::new("g", schema, programs, &[])
                .unfolded()
                .len()
        };
        let expected = ltps(0);
        for seed in 1..16 {
            assert_eq!(ltps(seed), expected, "seed {seed}");
        }
    }

    #[test]
    fn blocks_parse_on_their_own() {
        let generated = generate(7, 6, 8);
        let schema = mvrc_btp::sql::parse_catalog(&generated.text).unwrap();
        for block in &generated.blocks {
            mvrc_btp::sql::parse_program(&schema, block).unwrap();
        }
    }
}
