//! What `/proc` says about the benchmark process: each thread's name
//! and CPU time (`task/<tid>/stat`), and what is mapped where (`maps`).

/// One thread's CPU time, in clock ticks, under its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTimes {
    pub name: String,
    pub user: u64,
    pub system: u64,
}

/// Parses one `stat` line (proc(5)). The name sits in parentheses and
/// may hold spaces and parentheses itself, so the fields are counted
/// from the last `)`: the state is field 3, `utime` 14, `stime` 15.
pub fn parse_stat(line: &str) -> Option<TaskTimes> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_string();
    let mut fields = line.get(close + 1..)?.split_whitespace();
    let user = fields.nth(11)?.parse().ok()?;
    let system = fields.next()?.parse().ok()?;
    Some(TaskTimes { name, user, system })
}

/// Every thread of process `pid` that could be read, by thread id.
pub fn tasks(pid: u32) -> Vec<(u32, TaskTimes)> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            Some((tid, parse_stat(&stat)?))
        })
        .collect()
}

/// One line of `maps`: an address range, the file offset mapped at its
/// start, and what is mapped (a path, `[vdso]`, or empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    pub start: u64,
    pub end: u64,
    pub offset: u64,
    pub path: String,
}

/// Parses a `maps` file; lines that do not parse are skipped.
pub fn parse_maps(text: &str) -> Vec<Mapping> {
    text.lines()
        .filter_map(|line| {
            let mut fields = line.splitn(6, ' ');
            let (start, end) = fields.next()?.split_once('-')?;
            let _perms = fields.next()?;
            let offset = fields.next()?;
            let (_dev, _inode) = (fields.next()?, fields.next()?);
            Some(Mapping {
                start: u64::from_str_radix(start, 16).ok()?,
                end: u64::from_str_radix(end, 16).ok()?,
                offset: u64::from_str_radix(offset, 16).ok()?,
                path: fields.next().unwrap_or("").trim().to_string(),
            })
        })
        .collect()
}

/// The mapping that holds `addr`.
pub fn mapping_of(maps: &[Mapping], addr: u64) -> Option<&Mapping> {
    maps.iter().find(|m| m.start <= addr && addr < m.end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stat_line_is_read_from_its_last_parenthesis() {
        let line = "4242 (flash-shard-0) S 4200 4200 77 0 -1 4194368 \
                    12 0 0 0 731 96 0 0 20 0 9 0 123 0 0";
        let t = parse_stat(line).unwrap();
        assert_eq!(
            t,
            TaskTimes {
                name: "flash-shard-0".into(),
                user: 731,
                system: 96
            }
        );
        // A name with spaces and parentheses of its own.
        let line = "7 (a (b) c) R 1 1 1 0 -1 0 0 0 0 0 5 6 0 0";
        let t = parse_stat(line).unwrap();
        assert_eq!((t.name.as_str(), t.user, t.system), ("a (b) c", 5, 6));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
    }

    #[test]
    fn maps_lines_parse_with_and_without_a_path() {
        let text = "55d0c0a00000-55d0c0a21000 r--p 00000000 08:01 1234 /opt/bin/flash-loadbench\n\
                    55d0c0a21000-55d0c0b00000 r-xp 00021000 08:01 1234 /opt/bin/flash-loadbench\n\
                    7ffd1b5fe000-7ffd1b600000 r-xp 00000000 00:00 0                          [vdso]\n\
                    7f0000000000-7f0000021000 rw-p 00000000 00:00 0 \n\
                    not a mapping\n";
        let maps = parse_maps(text);
        assert_eq!(maps.len(), 4);
        assert_eq!(maps[1].offset, 0x21000);
        assert_eq!(maps[2].path, "[vdso]");
        assert_eq!(maps[3].path, "");
        let hit = mapping_of(&maps, 0x55d0c0a21000 + 5).unwrap();
        assert_eq!(hit.start, 0x55d0c0a21000);
        assert!(mapping_of(&maps, 0x10).is_none());
    }
}
